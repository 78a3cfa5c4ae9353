package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The open loop keeps every CPU awake with idle-priority spinners while it
// runs. On the virtual machine it was defined on, a vCPU with nothing to
// run halts, and waking it takes the hypervisor milliseconds (the kernel
// counts the wait as steal time); at an open loop's modest rates that
// wake-up, not the code, decided the latency tail, and it changed from
// run to run. A SCHED_IDLE thread runs only when nothing else wants the
// CPU and yields to any other thread at once, so the servers and the load
// generator find a CPU that is never asleep. A spinner still shares a
// core's pipeline with a hyperthread sibling, so it runs only while the
// open loop does.

// keepAwakeFlag re-executes the benchmark binary as the spinner process.
const keepAwakeFlag = "-keep-awake"

const schedIdle = 5 // SCHED_IDLE from <linux/sched.h>

// keepAwake is the spinner process: one idle-priority busy thread per
// CPU, until killed.
func keepAwake(n int) {
	for i := 0; i < n; i++ {
		go spin()
	}
	select {}
}

func spin() {
	runtime.LockOSThread()
	var param struct{ priority int32 }
	// pid 0 is the calling thread.
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// Spinning at normal priority would take CPU from the servers.
		fmt.Fprintf(os.Stderr, "bench: keep-awake: sched_setscheduler: %v\n", errno)
		os.Exit(1)
	}
	for {
	}
}

// awake runs f with the spinner process running.
func (e *env) awake(f func()) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	p, err := e.fleet.startPath("keep-awake", self, keepAwakeFlag, strconv.Itoa(runtime.NumCPU()))
	if err != nil {
		return err
	}
	f()
	if p.exited() {
		return fmt.Errorf("keep-awake spinners stopped early: %s", tailLog(p.log.Name()))
	}
	e.fleet.stop(p)
	return nil
}
