package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"time"

	"e2eqos/internal/units"
)

// horizon is the span every generated window lies in, measured from
// the run's base time. The correctness gate checks committed bandwidth
// over exactly this window.
const horizon = 24 * time.Hour

// batchSize is the sub-flow count of one subflow64 TunnelBatch call.
const batchSize = 64

// liveBatches is how many alloc batches the subflow64 workload keeps
// live: the window is filled during set-up, and every timed op
// allocates one batch and releases the one liveBatches calls older, so
// the live set stays at liveBatches*batchSize sub-flows at each end.
const liveBatches = 64

// booking is one seeded bandwidth commitment: a reserve op's request or
// a background reservation preloaded into a domain's table. Offsets are
// relative to the run's base time, so the same seed gives the same
// inputs whatever the wall clock reads.
type booking struct {
	BW     units.Bandwidth
	Offset time.Duration
	Dur    time.Duration
}

func (b booking) window(base time.Time) units.Window {
	return units.NewWindow(base.Add(b.Offset), b.Dur)
}

// inputs is everything the program sees of a run: generated from the
// workload and the seed alone.
type inputs struct {
	// Reserves holds one request per reserve op (reserve workloads).
	Reserves []booking
	// Background holds each domain's preloaded bookings, by domain index.
	Background [][]booking
	// Batches holds the sub-flow bandwidths of every alloc batch: the
	// first liveBatches fill the window during set-up, batch
	// liveBatches+i is timed op i (subflow64).
	Batches [][]units.Bandwidth
	// TunnelBW is the tunnel's aggregate bandwidth (subflow64).
	TunnelBW units.Bandwidth
}

// uniform draws a duration in [lo, hi).
func uniform(r *rand.Rand, lo, hi time.Duration) time.Duration {
	return lo + time.Duration(r.Int64N(int64(hi-lo)))
}

// bandwidth draws a bandwidth in [lo, hi] in whole kb/s.
func bandwidth(r *rand.Rand, lo, hi units.Bandwidth) units.Bandwidth {
	k := int64(lo / units.Kbps)
	return units.Bandwidth(k+r.Int64N(int64(hi/units.Kbps)-k+1)) * units.Kbps
}

// generate makes a workload's inputs for ops timed ops from the seed.
func generate(wl *workload, seed uint64, ops int) *inputs {
	r := rand.New(rand.NewPCG(seed, 0x51ab1e5eed))
	in := &inputs{}
	// Background bookings span most of the horizon, so every one of
	// them overlaps every reserve op's window and the admission sweep
	// walks them all.
	for d := 0; d < wl.domains; d++ {
		var bg []booking
		for i := 0; i < wl.background; i++ {
			bg = append(bg, booking{
				BW:     bandwidth(r, units.Mbps, 10*units.Mbps),
				Offset: uniform(r, 0, 2*time.Hour),
				Dur:    uniform(r, 20*time.Hour, 22*time.Hour),
			})
		}
		in.Background = append(in.Background, bg)
	}
	if wl.subflow {
		in.TunnelBW = units.Gbps
		for i := 0; i < liveBatches+ops; i++ {
			sizes := make([]units.Bandwidth, batchSize)
			for j := range sizes {
				sizes[j] = bandwidth(r, units.Kbps, 100*units.Kbps)
			}
			in.Batches = append(in.Batches, sizes)
		}
		return in
	}
	for i := 0; i < ops; i++ {
		in.Reserves = append(in.Reserves, booking{
			BW:     bandwidth(r, units.Mbps, 10*units.Mbps),
			Offset: uniform(r, 2*time.Hour, 18*time.Hour),
			Dur:    uniform(r, 15*time.Minute, 2*time.Hour),
		})
	}
	return in
}

// digest is a SHA-256 over a canonical encoding of the inputs: equal
// seeds must give equal digests.
func (in *inputs) digest() string {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	putBookings := func(bs []booking) {
		put(int64(len(bs)))
		for _, b := range bs {
			put(int64(b.BW))
			put(int64(b.Offset))
			put(int64(b.Dur))
		}
	}
	putBookings(in.Reserves)
	put(int64(len(in.Background)))
	for _, bg := range in.Background {
		putBookings(bg)
	}
	put(int64(len(in.Batches)))
	for _, sizes := range in.Batches {
		put(int64(len(sizes)))
		for _, s := range sizes {
			put(int64(s))
		}
	}
	put(int64(in.TunnelBW))
	return hex.EncodeToString(h.Sum(nil))
}
