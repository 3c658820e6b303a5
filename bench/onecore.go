package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// One core.
//
// Every workload runs on one core: the bench process runs with
// GOMAXPROCS=1, every engine and compiler with one worker, and
// wire-inject gives its netd child GOMAXPROCS=1 too and confines both
// processes to the same CPU. The host has two vCPUs of a shared machine,
// and anything spread over both measured the neighbours, not the program:
// a generator and a daemon on a vCPU each wait for each other through
// inter-processor wake-ups whose latency follows the hypervisor's load, a
// compile on two workers ends when the slower vCPU does, and three busy
// goroutines on two vCPUs are placed by the scheduler differently every
// run. The driver's first check of this benchmark saw the run-to-run spread
// of those workloads at 25-37 % while the single-threaded loops stayed
// inside their bound. On one core a run is a fixed sequence of
// instructions: its time is the sum of the costs of its parts, which is
// what a change to the program moves.

// oneCore makes the bench process single-threaded as far as Go code goes.
func oneCore() { runtime.GOMAXPROCS(1) }

// confineToOneCPU restricts every thread of this process, and so every
// child it starts afterwards, to the CPU the caller is running on at this
// moment: the one the scheduler found free enough to start it on. It is
// called first thing, while the runtime has only its start-up threads.
func confineToOneCPU() error {
	// Field 39 of /proc/<tid>/stat is the CPU the thread last ran on; the
	// fields after the parenthesised command name start at field 3.
	stat, err := os.ReadFile("/proc/thread-self/stat")
	if err != nil {
		return err
	}
	f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(f) < 37 {
		return fmt.Errorf("/proc/thread-self/stat has %d fields", len(f))
	}
	cpu, err := strconv.Atoi(f[36])
	if err != nil {
		return err
	}
	var one [128]byte // 1024 CPUs
	if cpu/8 >= len(one) {
		return fmt.Errorf("cpu %d is beyond the affinity mask", cpu)
	}
	one[cpu/8] = 1 << (cpu % 8)
	// A thread started between the listing and the call would inherit its
	// creator's old mask; the second pass catches it.
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
			// A thread that exited since the listing is not an error.
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), uintptr(len(one)), uintptr(unsafe.Pointer(&one[0]))); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	return nil
}

// cpuTime is the CPU time, user and system, this process has used on all
// its threads (CLOCK_PROCESS_CPUTIME_ID, nanosecond resolution). Unlike
// wall time it stands still while a neighbour of the shared host holds
// the core.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // the clock exists on every Linux
	}
	return time.Duration(ts.Nano())
}

// taskCPUTime is the same for another process: the run time of its
// threads summed from /proc/<pid>/task/*/schedstat.
func taskCPUTime(pid int) (time.Duration, error) {
	dir := "/proc/" + strconv.Itoa(pid) + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	read := 0
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited since the listing
		}
		var ns int64
		if _, err := fmt.Sscan(string(b), &ns); err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		sum += ns
		read++
	}
	if read == 0 {
		return 0, fmt.Errorf("%s: no thread's schedstat could be read", dir)
	}
	return time.Duration(sum), nil
}
