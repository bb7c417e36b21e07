package graph

import (
	"math/rand"
)

// GenRMAT generates a power-law directed graph with n vertices (rounded up
// to a power of two internally, then ids are mapped back into [0,n)) and
// approximately m edges using the R-MAT recursive quadrant model with
// partition probabilities a, b, c (d = 1-a-b-c). Social-network datasets in
// the paper (livej, orkut, twi, fri) are highly skewed; a=0.57, b=0.19,
// c=0.19 reproduces that skew. The generator is deterministic for a given
// seed.
func GenRMAT(n, m int, a, b, c float64, seed int64) *Graph {
	return rmatBuilder(n, m, a, b, c, seed).Build()
}

// rmatBuilder, webBuilder and uniformBuilder hold their generators'
// edges in generation order, before Build sorts them.
func rmatBuilder(n, m int, a, b, c float64, seed int64) *Builder {
	rng := rand.New(rand.NewSource(seed))
	levels := 0
	for 1<<levels < n {
		levels++
	}
	bld := NewBuilder(n)
	for bld.Len() < m {
		src, dst := 0, 0
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				dst |= 1 << l
			case r < a+b+c:
				src |= 1 << l
			default:
				src |= 1 << l
				dst |= 1 << l
			}
		}
		src %= n
		dst %= n
		if src == dst {
			continue
		}
		bld.AddEdge(VertexID(src), VertexID(dst), randWeight(rng))
	}
	return bld
}

// GenWeb generates a web-like directed graph: vertices are grouped into
// hosts of hostSize pages; most edges stay within a host (strong locality,
// like the paper's wiki and uk web graphs), and the rest link to random
// pages on popular hosts. Deterministic for a given seed.
func GenWeb(n, m, hostSize int, intraProb float64, seed int64) *Graph {
	return webBuilder(n, m, hostSize, intraProb, seed).Build()
}

func webBuilder(n, m, hostSize int, intraProb float64, seed int64) *Builder {
	if hostSize < 2 {
		hostSize = 2
	}
	rng := rand.New(rand.NewSource(seed))
	hosts := (n + hostSize - 1) / hostSize
	bld := NewBuilder(n)
	for bld.Len() < m {
		src := rng.Intn(n)
		var dst int
		if rng.Float64() < intraProb {
			// Intra-host link: nearby id on the same host.
			host := src / hostSize
			lo := host * hostSize
			hi := lo + hostSize
			if hi > n {
				hi = n
			}
			dst = lo + rng.Intn(hi-lo)
		} else {
			// Cross-host link, biased toward low-id (popular) hosts.
			h := int(float64(hosts) * rng.Float64() * rng.Float64())
			lo := h * hostSize
			hi := lo + hostSize
			if hi > n {
				hi = n
			}
			dst = lo + rng.Intn(hi-lo)
		}
		if src == dst {
			continue
		}
		bld.AddEdge(VertexID(src), VertexID(dst), randWeight(rng))
	}
	return bld
}

// GenUniform generates an Erdős–Rényi style directed graph with n vertices
// and approximately m uniformly random edges. Used by property tests as a
// skew-free control.
func GenUniform(n, m int, seed int64) *Graph {
	return uniformBuilder(n, m, seed).Build()
}

func uniformBuilder(n, m int, seed int64) *Builder {
	rng := rand.New(rand.NewSource(seed))
	bld := NewBuilder(n)
	for bld.Len() < m {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if src == dst {
			continue
		}
		bld.AddEdge(VertexID(src), VertexID(dst), randWeight(rng))
	}
	return bld
}

// GenChain generates a simple path 0→1→…→n-1 plus optional extra shortcut
// edges every stride vertices. Useful to force long-diameter Traversal
// behaviour (SSSP converges over ~n supersteps on a pure chain).
func GenChain(n, stride int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	bld := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		bld.AddEdge(VertexID(i), VertexID(i+1), randWeight(rng))
	}
	if stride > 1 {
		for i := 0; i+stride < n; i += stride {
			bld.AddEdge(VertexID(i), VertexID(i+stride), randWeight(rng))
		}
	}
	return bld.Build()
}

func randWeight(rng *rand.Rand) float32 {
	// Weights in (0,1]; SSSP needs strictly positive weights.
	return float32(rng.Float64()*0.99 + 0.01)
}
