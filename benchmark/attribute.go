package main

import (
	"slices"
	"strings"
)

// layers are the repository packages the traced run attributes host
// time to; a layer is a package under repro/internal.
var layers = []string{
	"sim", "crypto", "merkle", "chain", "vm", "contracts", "spv", "p2p",
	"miner", "protocol", "core", "swap", "batch", "xchain", "engine", "trace",
}

const repoPrefix = "repro/internal/"

// cumFunctions names the functions whose cumulative share (samples
// with the function anywhere on the stack) the traced run reports. A
// name ending in "." is a package prefix. Renaming one of these
// functions silently zeroes its metric — per-layer metrics carry no
// bound, so that shows up as a visible drop to 0, not a rejection.
var cumFunctions = map[string]string{
	"crypto.sign.cum_share":         "repro/internal/crypto.(*KeyPair).Sign",
	"crypto.verify.cum_share":       "repro/internal/crypto.Signature.Verify",
	"crypto.multisig_add.cum_share": "repro/internal/crypto.(*MultiSig).Add",
	"chain.header_hash.cum_share":   "repro/internal/chain.(*Header).Hash",
	"chain.build_block.cum_share":   "repro/internal/chain.(*Chain).BuildBlock",
	"chain.apply_tx.cum_share":      "repro/internal/chain.ApplyTx",
	"gob.cum_share":                 "encoding/gob.",
	"spv.verify.cum_share":          "repro/internal/spv.(*Evidence).Verify",
	"miner.mine_one.cum_share":      "repro/internal/miner.(*Node).mineOne",
	"protocol.drive.cum_share":      "repro/internal/protocol.(*Runtime).Drive",
	"runtime.malloc.cum_share":      "runtime.mallocgc",
}

// layerOf returns the repro/internal package a function belongs to.
func layerOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i], true
	}
	return "", false
}

// matchesFunc reports whether frame fn is the named function (or one
// of its closures), or lies in the named package when want ends in ".".
func matchesFunc(fn, want string) bool {
	if strings.HasSuffix(want, ".") {
		return strings.HasPrefix(fn, want)
	}
	return fn == want || strings.HasPrefix(fn, want+".")
}

// calls reports whether the named function is anywhere on the stack.
func (s stackSample) calls(want string) bool {
	for _, fn := range s.Funcs {
		if matchesFunc(fn, want) {
			return true
		}
	}
	return false
}

// attribute turns profile samples into the [P] metrics: every sample
// is charged to the layer of its innermost repro/internal frame (so
// ed25519, SHA-256 and gob leaf time lands on the layer that asked for
// it), to runtime.gc_bg_share when no repository frame is on the stack
// (background GC workers, the scheduler), and to other.cpu_self_share
// when that frame is in a package outside the layer list. The shares
// sum to 1. total is the number of samples.
func attribute(samples []stackSample) (shares map[string]float64, total int64) {
	self := make(map[string]int64)
	cum := make(map[string]int64)
	for _, s := range samples {
		total += s.Count
		bucket := "runtime.gc_bg_share"
		for _, fn := range s.Funcs {
			if layer, ok := layerOf(fn); ok {
				bucket = "other.cpu_self_share"
				if slices.Contains(layers, layer) {
					bucket = layer + ".cpu_self_share"
				}
				break
			}
		}
		self[bucket] += s.Count
		for metric, want := range cumFunctions {
			if s.calls(want) {
				cum[metric] += s.Count
			}
		}
	}
	shares = make(map[string]float64)
	share := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(n) / float64(total)
	}
	for _, l := range layers {
		shares[l+".cpu_self_share"] = share(self[l+".cpu_self_share"])
	}
	shares["other.cpu_self_share"] = share(self["other.cpu_self_share"])
	shares["runtime.gc_bg_share"] = share(self["runtime.gc_bg_share"])
	for metric := range cumFunctions {
		shares[metric] = share(cum[metric])
	}
	return shares, total
}
