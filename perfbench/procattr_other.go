//go:build !linux

package main

import "syscall"

// childAttr is nil where the kernel cannot tie a child's life to the
// benchmark's; the benchmark still stops every child on its normal paths.
func childAttr() *syscall.SysProcAttr { return nil }
