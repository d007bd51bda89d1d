package main

import (
	"syscall"
	"unsafe"
)

// schedIdle is SCHED_IDLE from <linux/sched.h>.
const schedIdle = 5

// setIdlePolicy moves the calling thread into SCHED_IDLE. Lowering
// one's own priority needs no privilege.
func setIdlePolicy() error {
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return errno
	}
	return nil
}
