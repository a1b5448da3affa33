package main

import "syscall"

// childAttr makes the kernel kill a child server when the harness dies in a
// way no deferred cleanup sees (SIGKILL from a driver's timeout).
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
