package main

import (
	"bufio"
	"cmp"
	"os"
	"slices"
	"strconv"
	"strings"
)

// The benchmark runs on shared virtual machines, where the hypervisor
// takes CPU from the guest in bursts. On the 2-vCPU machine the benchmark
// was built on, one daemon run lost 10% of its CPU time to steal and
// served 23% fewer operations per second than a run beside it with none;
// the bursts last seconds to minutes, so longer runs do not average them
// out. The timing metrics are therefore taken over calm samples only
// (see calm), each sample tagged with the share of CPU time the host
// stole while it ran. Steal is CPU time the hypervisor gave to other
// guests, which the program cannot cause, so dropping stolen samples
// removes host noise and none of the program's.
//
// A sample is a fixed unit of work or time long enough to hold many
// 10 ms clock ticks: a 250 ms daemon phase, at least 0.5 s of solves,
// a whole replay. Single short calls are never selected on their own: one
// stolen tick makes a 50 ms call read as 10% stolen, and longer calls
// catch more ticks, so selecting calls would favour the short ones.
// Set-up times are plain medians for the same reason.
//
// Neighbours also slow the guest without stealing from it, through
// shared cores and caches; that remains as a run-to-run spread of about
// 10% in the timing metrics on the machine named above.

// cpuTicks is a reading of the machine-wide CPU counters in /proc/stat.
type cpuTicks struct {
	steal, total uint64
}

// readTicks returns the current counters, or zeros where /proc/stat is
// missing (the steal share then reads 0 and every sample counts as calm).
func readTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		// Columns: user nice system idle iowait irq softirq steal guest
		// guest_nice; guest time is already counted in user and nice.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealSince is the share of CPU time stolen between a and the receiver.
func (t cpuTicks) stealSince(a cpuTicks) float64 {
	if t.total <= a.total {
		return 0
	}
	return float64(t.steal-a.steal) / float64(t.total-a.total)
}

// calmSteal is the steal share up to which a sample always counts as
// calm. On two CPUs it tolerates one stolen 10 ms tick in a sample of
// 0.5 s or more (a sample of solves, a replay), but not in a 250 ms daemon
// phase: that holds 50 ticks, so a single stolen tick (2%) disqualifies
// the phase.
const calmSteal = 0.01

// calm returns the indices, least disturbed first, of the observations
// whose steal share is at most calmSteal, topped up with the least
// disturbed others to at least need. On a quiet host that is all of them.
func calm(steal []float64, need int) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(steal[a], steal[b]) })
	k := 0
	for k < len(idx) && (steal[idx[k]] <= calmSteal || k < need) {
		k++
	}
	return idx[:k]
}

// pick returns the values at idx.
func pick(values []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = values[j]
	}
	return out
}
