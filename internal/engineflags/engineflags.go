// Package engineflags declares the engine flags cmd/asdb and cmd/asdbd
// share, so both binaries take the same names, defaults and methods.
package engineflags

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux

	"repro/internal/core"
	"repro/internal/metrics"
)

var methods = map[string]core.AccuracyMethod{
	"none":       core.AccuracyNone,
	"analytical": core.AccuracyAnalytical,
	"bootstrap":  core.AccuracyBootstrap,
}

// Parse declares -level -method -seed -drop-unsure -data-dir -fsync
// -checkpoint-every and -debug-addr on fs next to the caller's own flags,
// parses args and returns the engine configuration. With -debug-addr set it
// starts the HTTP observability listener (/debug/metrics, /debug/vars,
// /debug/pprof) and reports through logf; the listener only reads atomic
// instruments, so results stay bit-identical with or without it.
func Parse(fs *flag.FlagSet, args []string, logf func(format string, args ...any)) (core.Config, error) {
	level := fs.Float64("level", 0.9, "confidence level for accuracy intervals")
	method := fs.String("method", "analytical", "accuracy method: none | analytical | bootstrap")
	seed := fs.Uint64("seed", 1, "engine RNG seed")
	dropUnsure := fs.Bool("drop-unsure", false, "drop tuples whose coupled significance test is UNSURE")
	dataDir := fs.String("data-dir", "", "durability directory (empty = in-memory only)")
	fsyncPolicy := fs.String("fsync", "interval", "WAL fsync policy: always | interval | none")
	ckEvery := fs.Int("checkpoint-every", 1024, "checkpoint after this many journaled commands")
	debugAddr := fs.String("debug-addr", "", "HTTP observability listener (/debug/metrics, /debug/vars, /debug/pprof); empty disables")
	if err := fs.Parse(args); err != nil {
		return core.Config{}, err
	}
	m, ok := methods[*method]
	if !ok {
		return core.Config{}, fmt.Errorf("unknown method %q", *method)
	}
	if *debugAddr != "" {
		metrics.Default.PublishExpvar("asdb")
		http.Handle("/debug/metrics", metrics.Default.Handler())
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				logf("debug listener: %v", err)
			}
		}()
		logf("debug listener on http://%s/debug/metrics", *debugAddr)
	}
	return core.Config{
		Level:           *level,
		Method:          m,
		Seed:            *seed,
		DropUnsure:      *dropUnsure,
		DataDir:         *dataDir,
		FsyncPolicy:     *fsyncPolicy,
		CheckpointEvery: *ckEvery,
	}, nil
}
