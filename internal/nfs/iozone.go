package nfs

import (
	"fmt"

	"repro/internal/sim"
)

// IOzoneConfig describes an IOzone-style run (paper §3.6: a 512 MB file
// with a 256 KB record size, single server, multi-threaded client).
type IOzoneConfig struct {
	FileSize   int64 // default 512 MB
	RecordSize int   // default 256 KB
	Threads    int   // default 1
	Write      bool  // measure writes instead of reads
}

func (c *IOzoneConfig) fill() {
	if c.FileSize == 0 {
		c.FileSize = 512 << 20
	}
	if c.RecordSize == 0 {
		c.RecordSize = 256 << 10
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
}

// IOzone runs the benchmark on an already-mounted client against the named
// synthetic file and returns throughput in MillionBytes/s. Each thread
// works a contiguous stripe of the file, record by record, as IOzone's
// multi-threaded mode does. The simulation runs inside this call.
//
// The workload threads run on the client's home environment, not on env: on
// a partitioned world that is the client node's shard, where the mount's RPC
// completion events live.
func IOzone(env *sim.Env, c *Client, file string, cfg IOzoneConfig) float64 {
	cfg.fill()
	env = c.env
	var fh uint64
	var elapsed sim.Time
	env.Go("iozone-main", func(p *sim.Proc) {
		var err error
		fh, _, err = c.Lookup(p, file)
		if err != nil {
			panic(fmt.Sprintf("nfs: iozone lookup: %v", err))
		}
		stripe := cfg.FileSize / int64(cfg.Threads)
		start := p.Now()
		left := cfg.Threads
		done := env.NewEvent()
		for i := 0; i < cfg.Threads; i++ {
			lo := int64(i) * stripe
			hi := lo + stripe
			if i == cfg.Threads-1 {
				hi = cfg.FileSize
			}
			env.Go(fmt.Sprintf("iozone-%d", i), func(pt *sim.Proc) {
				for off := lo; off < hi; off += int64(cfg.RecordSize) {
					count := cfg.RecordSize
					if int64(count) > hi-off {
						count = int(hi - off)
					}
					var err error
					if cfg.Write {
						_, err = c.Write(pt, fh, off, nil, count)
					} else {
						_, err = c.Read(pt, fh, off, count, nil)
					}
					if err != nil {
						panic(fmt.Sprintf("nfs: iozone io: %v", err))
					}
				}
				if left--; left == 0 {
					done.Trigger(nil)
				}
			})
		}
		p.Wait(done)
		elapsed = p.Now() - start
		env.Stop()
	})
	env.Run()
	if elapsed <= 0 {
		// The run ended without the workload advancing virtual time (a
		// deadlocked or instantly-failed transport): surface it instead of
		// reporting an infinite throughput.
		panic("nfs: iozone made no progress")
	}
	return float64(cfg.FileSize) / elapsed.Seconds() / 1e6
}
