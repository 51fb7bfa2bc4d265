package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask; 1024 CPUs is the kernel's default
// limit and what glibc's cpu_set_t holds.
type cpuMask [1024 / 64]uint64

func (m *cpuMask) cpus() []int {
	var out []int
	for i := 0; i < 1024; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// pinToOneCPU confines the harness — every thread it has, so every thread
// and child process it starts from then on — to one of the CPUs it may use
// (the highest-numbered, leaving CPU 0 to the kernel's housekeeping), and
// returns the function that lifts the confinement again. See README.md,
// host-noise finding, for what this buys the serve-hot workload.
//
// Linux only, like the rest of the harness (process groups, /proc). There
// is no stub for other systems beside it because the repository's own
// analyzers load every file of a package whatever its build constraints.
func pinToOneCPU() (cpu int, unpin func(), err error) {
	var allowed cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return 0, nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpus := allowed.cpus()
	if len(cpus) == 0 {
		return 0, nil, fmt.Errorf("sched_getaffinity: empty mask")
	}
	cpu = cpus[len(cpus)-1]
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAffinityAllThreads(&one); err != nil {
		return 0, nil, err
	}
	return cpu, func() { _ = setAffinityAllThreads(&allowed) }, nil
}

// setAffinityAllThreads applies the mask to every thread of the process.
// A thread the runtime starts meanwhile inherits its creator's mask, which
// is the old one only if the creator has not been reached yet; the second
// pass catches those.
func setAffinityAllThreads(m *cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited since it was listed
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return nil
}
