package main

// CPU placement. On a two-vCPU sandbox the load generator and the daemon
// would otherwise share both CPUs, and where the kernel happens to put
// their threads — and how often one Go runtime has to wake a thread parked
// on the other vCPU — decides throughput: the same seed gave 2200 to 4700
// ops/s from one run to the next. So the two are kept apart, as a load
// generator and a system under test usually are: the daemon gets the first
// allowed CPU to itself (its runtime sees one CPU and sets GOMAXPROCS=1),
// the benchmark process gets the others. With that the same runs agree
// within a few percent. A machine with a single allowed CPU is left alone.

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity mask of up to 1024 CPUs.
type cpuSet [16]uint64

func (s *cpuSet) set(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

func (s *cpuSet) count() int {
	n := 0
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s.has(cpu) {
			n++
		}
	}
	return n
}

func getAffinity(tid int) (cpuSet, error) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return s, nil
}

func setAffinity(tid int, s cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// placeCPUs splits the allowed CPUs between the daemon and this process,
// moves every thread of this process onto its share, and returns the
// daemon's share; the zero set means the daemon is not confined. Threads the
// runtime starts later inherit the mask of the thread that starts them.
//
// The split is made once per process and later calls return the same
// answer: a second split would start from the mask the first one narrowed
// and hand the daemon one of the load generator's CPUs.
var placeCPUs = sync.OnceValues(func() (daemon cpuSet, err error) {
	all, err := getAffinity(0)
	if err != nil {
		return cpuSet{}, err
	}
	if all.count() < 2 {
		return cpuSet{}, nil
	}
	var clients cpuSet
	for cpu := 0; cpu < len(all)*64; cpu++ {
		switch {
		case !all.has(cpu):
		case daemon.count() == 0:
			daemon.set(cpu)
		default:
			clients.set(cpu)
		}
	}
	runtime.GOMAXPROCS(clients.count())
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return cpuSet{}, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may have exited since the listing; that is not an error.
		if err := setAffinity(tid, clients); err != nil && !errors.Is(err, syscall.ESRCH) {
			return cpuSet{}, err
		}
	}
	return daemon, nil
})

// startOn starts cmd with the given CPU mask: a child inherits the mask of
// the thread that forks it, so this thread borrows the mask for the fork.
func startOn(cmd *exec.Cmd, mask cpuSet) error {
	if mask.count() == 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mine, err := getAffinity(0)
	if err != nil {
		return err
	}
	if err := setAffinity(0, mask); err != nil {
		return err
	}
	startErr := cmd.Start()
	if err := setAffinity(0, mine); err != nil {
		return err
	}
	return startErr
}
