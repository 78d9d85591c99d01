package main

import (
	"bytes"
	"os"
	"strconv"
)

// peakRSSBytes is this process's resident-set high-water mark, read
// from /proc/self/status: VmHWM starts afresh at exec, where getrusage's
// ru_maxrss starts from the launching process's size. It reads 0 where
// there is no procfs.
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if f := bytes.Fields(line); len(f) == 3 && string(f[0]) == "VmHWM:" {
			kb, _ := strconv.ParseInt(string(f[1]), 10, 64)
			return kb << 10
		}
	}
	return 0
}
