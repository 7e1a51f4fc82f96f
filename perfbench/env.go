package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// tmpfsMagic is statfs f_type for tmpfs (linux/magic.h TMPFS_MAGIC).
const tmpfsMagic = 0x01021994

// onTmpfs reports whether dir lives on tmpfs. The benchmark keeps its files
// inside the checkout, so the store and journal are on tmpfs only when the
// checkout is.
func onTmpfs(dir string) bool {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	return st.Type == tmpfsMagic
}

// cpuModel is the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// environment is the stamp every result carries.
func environment(o options, workers int, tmpfs *bool) map[string]any {
	env := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds.Seconds(),
		"trace":      o.trace,
		"workers":    workers,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     o.commit,
		"scheduler":  "heap (shipped default)",
	}
	if tmpfs != nil {
		env["dispatch_tmpfs"] = *tmpfs
	}
	return env
}
