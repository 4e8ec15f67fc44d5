package main

import "syscall"

// childAttr makes the kernel kill a child process when the benchmark
// exits, so that no server or job outlives a run that crashed or was
// killed before it could stop them itself.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
