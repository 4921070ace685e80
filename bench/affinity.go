package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity mask: bit i of word i/64 is CPU i.
type cpuSet [16]uint64

func (s cpuSet) count() (n int) {
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s[cpu/64]&(1<<(cpu%64)) != 0 {
			n++
		}
	}
	return n
}

// last is the set holding only the highest-numbered CPU of s. CPU 0 takes
// most of a guest's interrupts, so the far end is the quieter choice.
func (s cpuSet) last() (one cpuSet) {
	for cpu := len(s)*64 - 1; cpu >= 0; cpu-- {
		if s[cpu/64]&(1<<(cpu%64)) != 0 {
			one[cpu/64] = 1 << (cpu % 64)
			break
		}
	}
	return one
}

// allowedCPUs is the set this process was started with, read once before
// any pinning.
var allowedCPUs = func() (s cpuSet) {
	syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	return s
}()

// pinned is whether the process is confined to one CPU right now.
var pinned bool

// pinToOneCPU confines every thread of this process to one CPU. Children
// started while it holds inherit the confinement, which is how a oneCPU
// workload puts qserve and its client on the same CPU.
func pinToOneCPU() error {
	if pinned || allowedCPUs.count() < 2 {
		return nil
	}
	pinned = true
	return setProcessAffinity(allowedCPUs.last())
}

// unpin gives the process its original CPUs back.
func unpin() error {
	if !pinned {
		return nil
	}
	pinned = false
	return setProcessAffinity(allowedCPUs)
}

// setProcessAffinity applies set to every thread. The Go runtime may start
// a thread at any moment, from a parent already moved or not, so it passes
// over /proc/self/task until a pass finds no thread it has not set.
func setProcessAffinity(set cpuSet) error {
	done := make(map[int]bool)
	for {
		entries, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, e := range entries {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || done[tid] {
				continue
			}
			done[tid], fresh = true, true
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread ended meanwhile
				return fmt.Errorf("sched_setaffinity(%d): %v", tid, errno)
			}
		}
		if !fresh {
			return nil
		}
	}
}
