package obs

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts what a command's -cpuprofile and -memprofile flags
// ask for: a CPU profile written to cpuPath from now until stop, and an
// allocation profile of the whole process written to memPath by stop. An
// empty path skips that profile.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // the allocs profile is complete as of the last collection
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
