package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sort"

	"github.com/stcps/stcps"
)

const (
	joinSites  = 64
	joinWindow = 8
	joinWhen   = "x.time before y.time and dist(x.loc, y.loc) < 2"
	imuSensors = 8
	imuWhen    = "x.ax > 9.9"
	imuRing    = 4096
	// imuPass is how many records of the ring pass the filter: 1%, the
	// same count for every seed. A uniform draw of ax on [0,10) would
	// make it binomial, 41 ± 6, and the emission count, the store's size
	// and the daemon's resident set would differ by a fifth between
	// seeds of one commit.
	imuPass = imuRing / 100
	// imuMaxAge bounds the filter windows by age, which is what lets WAL
	// compaction drop ingest segments behind a snapshot; a single-role
	// window-1 filter never looks back, so detection is unaffected.
	imuMaxAge = 4096
	fieldSize = 512.0
)

// eventDecl is one entry of the daemon's -events file. The same
// declarations configure the reference engine and the traced replica.
type eventDecl struct {
	ID    string     `json:"id"`
	Layer string     `json:"layer"`
	Roles []roleDecl `json:"roles"`
	When  string     `json:"when"`
}

type roleDecl struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Window int    `json:"window"`
	MaxAge int64  `json:"maxAge,omitempty"`
}

// events returns the detector declarations of a stream kind.
func events(kind string) []eventDecl {
	var out []eventDecl
	if kind == "imu" {
		for k := 0; k < imuSensors; k++ {
			out = append(out, eventDecl{
				ID: fmt.Sprintf("F%d", k), Layer: "sensor", When: imuWhen,
				Roles: []roleDecl{{Name: "x", Source: fmt.Sprintf("IMU%d", k), Window: 1, MaxAge: imuMaxAge}},
			})
		}
		return out
	}
	for k := 0; k < joinSites; k++ {
		out = append(out, eventDecl{
			ID: fmt.Sprintf("E%d", k), Layer: "sensor", When: joinWhen,
			Roles: []roleDecl{
				{Name: "x", Source: fmt.Sprintf("S%d", k), Window: joinWindow},
				{Name: "y", Source: fmt.Sprintf("T%d", k), Window: joinWindow},
			},
		})
	}
	return out
}

// siteXY is the fixed position of join site k — the paper's static
// motes, one per 64×64 cell of an 8×8 grid.
func siteXY(k int) (x, y float64) {
	return float64(k%8)*64 + 32, float64(k/8)*64 + 32
}

// stream yields record i of a generated observation sequence. Record i
// carries virtual tick i and Seq i+1, so an emitted instance's `gen` is
// the index of the observation that triggered it.
type stream struct {
	recs []stcps.Observation // join: every record; imu: the ring
	ring bool
}

func (s *stream) at(i int, dst *stcps.Observation) {
	if !s.ring {
		*dst = s.recs[i]
		return
	}
	*dst = s.recs[i%len(s.recs)]
	dst.Seq = uint64(i + 1)
	dst.Time = stcps.At(stcps.Tick(i))
}

// generate builds the first n records of the workload's stream. Every
// random choice comes from seed.
func generate(cfg StreamCfg, seed uint64, n int) *stream {
	rng := rand.New(rand.NewPCG(seed, 0x5ca1ab1e))
	if cfg.Kind == "imu" {
		return &stream{recs: genIMU(rng), ring: true}
	}
	return &stream{recs: genJoin(rng, cfg, n)}
}

func genJoin(rng *rand.Rand, cfg StreamCfg, n int) []stcps.Observation {
	// Cumulative site weights: uniform, or Zipf with exponent 1.
	cum := make([]float64, joinSites)
	total := 0.0
	for k := range cum {
		w := 1.0
		if cfg.Sites == "zipf" {
			w = 1 / float64(k+1)
		}
		total += w
		cum[k] = total
	}
	// Per-sensor identity strings and a small pool of attribute maps are
	// shared across records: sending only reads them.
	var sensors [2][joinSites]string
	var motes [joinSites]string
	for k := 0; k < joinSites; k++ {
		sensors[0][k] = fmt.Sprintf("S%d", k)
		sensors[1][k] = fmt.Sprintf("T%d", k)
		motes[k] = fmt.Sprintf("M%d", k)
	}
	temps := make([]stcps.Attrs, 16)
	for i := range temps {
		temps[i] = stcps.Attrs{"temp": 18 + 0.5*float64(i)}
	}
	recs := make([]stcps.Observation, n)
	for i := range recs {
		k := sort.SearchFloat64s(cum, rng.Float64()*total)
		if k >= joinSites {
			k = joinSites - 1
		}
		x, y := siteXY(k)
		x += (2*rng.Float64() - 1) * cfg.Jitter
		y += (2*rng.Float64() - 1) * cfg.Jitter
		recs[i] = stcps.Observation{
			Mote: motes[k], Sensor: sensors[rng.IntN(2)][k], Seq: uint64(i + 1),
			Time:  stcps.At(stcps.Tick(i)),
			Loc:   stcps.AtPoint(x, y),
			Attrs: temps[rng.IntN(len(temps))],
		}
	}
	return recs
}

func genIMU(rng *rand.Rand) []stcps.Observation {
	// The seed chooses which records pass, not how many.
	passes := make([]bool, imuRing)
	for _, i := range rng.Perm(imuRing)[:imuPass] {
		passes[i] = true
	}
	recs := make([]stcps.Observation, imuRing)
	for i := range recs {
		k := rng.IntN(imuSensors)
		ax := 9.89 * rng.Float64()
		if passes[i] {
			ax = 9.91 + 0.09*rng.Float64()
		}
		recs[i] = stcps.Observation{
			Mote: "MT1", Sensor: fmt.Sprintf("IMU%d", k),
			Loc: stcps.AtPoint(rng.Float64()*fieldSize, rng.Float64()*fieldSize),
			Attrs: stcps.Attrs{
				"ax": ax, "ay": -0.2, "az": 9.8,
				"gx": 0.01, "gy": 0.02, "gz": 0.03,
				"mx": 41, "my": -12, "mz": 7, "temp": 21.5,
			},
		}
	}
	return recs
}

// payloadHash is the generator's determinism witness: the SHA-256 of
// records [0,n) framed exactly as wireclient frames them.
func payloadHash(s *stream, n int) string {
	sum := sha256.Sum256(encodeWire(s, n, newTracer(traceOff, 0)))
	return hex.EncodeToString(sum[:])
}
