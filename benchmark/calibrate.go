package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"runtime"
	"time"
)

// The sandbox this benchmark runs in changes speed by a quarter or
// more for minutes at a time (a busy neighbour on the host), which no
// amount of repetition inside a 20-second run averages out. So the
// three host *times* — set-up, wall and CPU — are reported at a
// reference machine speed: a fixed kernel of standard-library work is
// timed before and after every repetition, and the run's times are
// divided by how much slower than reference the kernel ran. The kernel
// uses no repository code, so a change to the repository cannot move
// it; its mix (about half ed25519, the rest SHA-256, map inserts and
// small allocations) follows the engine's CPU profile so that it slows
// down with the machine the way the engine does.

// calibrationReference is how long one kernel call takes by
// definition: host times are reported as if it took exactly this long.
const calibrationReference = 100 * time.Millisecond

// calibrationCalls is how many kernel calls one sampling point makes.
const calibrationCalls = 3

// calibrationKernel does a fixed amount of work and returns how long
// it took.
func calibrationKernel() time.Duration {
	start := time.Now()
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	pub := priv.Public().(ed25519.PublicKey)
	msg := make([]byte, 32)
	seen := make(map[[sha256.Size]byte][]byte)
	for i := 0; i < 600; i++ {
		msg[0], msg[1] = byte(i), byte(i>>8)
		if !ed25519.Verify(pub, msg, ed25519.Sign(priv, msg)) {
			panic("calibration: ed25519 rejected its own signature")
		}
		buf := make([]byte, 100)
		for k := 0; k < 150; k++ {
			buf[0], buf[1], buf[2] = byte(k), byte(i), byte(i>>8)
			seen[sha256.Sum256(buf)] = append([]byte(nil), buf...)
		}
		// Bounded, so the kernel adds well under a MiB to the process's
		// memory high-water mark, which is itself a metric.
		if len(seen) >= 1500 {
			clear(seen)
		}
	}
	sink = seen
	return time.Since(start)
}

// sampleKernel appends one sampling point's kernel timings. The heap
// is collected first: on top of what the last repetition left behind,
// the kernel's own garbage would push the heap, and with it the
// peak-memory metric, past the repetition's high-water mark.
func sampleKernel(samples []float64) []float64 {
	runtime.GC()
	for i := 0; i < calibrationCalls; i++ {
		samples = append(samples, float64(calibrationKernel()))
	}
	return samples
}

// slowdown is the median kernel timing over the reference: 1.25 means
// the machine ran a quarter slower than reference speed while the
// samples were taken. The median, because single kernel calls catch
// sub-second hiccups that the seconds-long repetitions average over.
func slowdown(samples []float64) float64 {
	return median(samples) / float64(calibrationReference)
}
