package mps

// The golden generation table pins generation output bit for bit: the
// SHA-256 of the v3 bytes, the final coverage, the best average cost and
// a digest of every coverage value the Progress hook saw, for a small
// grid of circuits, seeds and backends. Any speed-up of the generation
// inner loop (overlap queries, cost evaluation, coverage bookkeeping,
// Renumber) must leave every row unchanged.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"runtime"
	"strconv"
	"testing"
)

type goldenGen struct {
	circuit  string
	backend  string
	seed     int64
	sha      string // hex SHA-256 of SaveBinaryCompiled
	coverage uint64 // math.Float64bits(Stats.FinalCoverage)
	bestAvg  uint64 // math.Float64bits(Stats.BestAvgCost)
	progress uint64 // FNV-64a over every Progress (placements, coverage bits)
}

var goldenGenerations = []goldenGen{
	{circuit: "circ01", backend: "anneal", seed: 1,
		sha:      "9d0d5f9a86eea770941aff71a82a5dee23e908fbd43940cb6af1770c32074684",
		coverage: 0x3f960df62b656fc9, bestAvg: 0x40636f1eb851eb8a, progress: 0x67f83d6d8749e882},
	{circuit: "circ01", backend: "anneal", seed: 2,
		sha:      "37ced3d74b18a89319a54bdfe69143c3ba498a84bea1addf0f27b9387df4cafe",
		coverage: 0x3fac2b1480544ecc, bestAvg: 0x4068d4eb851eb858, progress: 0xd45b2c324742cd6f},
	{circuit: "circ01", backend: "anneal", seed: 3,
		sha:      "c06dca072dc195de5fbf1c2a6e556ec8135314ff18c9b940a6b79484f21e5b3f",
		coverage: 0x3fb4486541ca4d8d, bestAvg: 0x406f4a6147ae147d, progress: 0x4b17e610f43fe180},
	{circuit: "circ01", backend: "ga", seed: 1,
		sha:      "ed807660d593642a8335916bf856cbece4619336257d3f84e4ad06a298fd0848",
		coverage: 0x3f9343abda4513a8, bestAvg: 0x4060cf7ae147ae0e, progress: 0x27a92a11b62e1e92},
	{circuit: "circ01", backend: "ga", seed: 2,
		sha:      "fab65837f4f08da988a5c56c7914eddc17eca006ad7674a36bb36104ee300f8e",
		coverage: 0x3fa9dd88ee4f500c, bestAvg: 0x405f18666666666b, progress: 0xd5c29796c0c74c2a},
	{circuit: "circ01", backend: "ga", seed: 3,
		sha:      "2193014065db9a56b24857cea8a6e2f652e7d79b33d0d3a996bd9938ef6ff3d2",
		coverage: 0x3f8ce5ec75d76679, bestAvg: 0x405f903d70a3d708, progress: 0xdd482d3542f25959},
	{circuit: "TwoStageOpamp", backend: "anneal", seed: 1,
		sha:      "bf567e75fa7fac2b4c2d5c9964debaed1c3adcc6abfcb296f9ed4e23f3fe107b",
		coverage: 0x3f96cd36f4fa1731, bestAvg: 0x4080d8170a3d70a4, progress: 0x54da1e0771b4cc34},
	{circuit: "TwoStageOpamp", backend: "anneal", seed: 2,
		sha:      "16b1b1068e9e4b85acf5c782a35a3a8d397609d4c0c3b126d42f0e9aea58d774",
		coverage: 0x3f721a6edff757e4, bestAvg: 0x40774bc000000000, progress: 0x62893f354a32cdc8},
	{circuit: "TwoStageOpamp", backend: "anneal", seed: 3,
		sha:      "6dbf957daaaf84a94bc5eaed3f5fb5eb3dbe52db38fe9c60d08687c821ba6916",
		coverage: 0x3f721de41decee2a, bestAvg: 0x407dc7dc28f5c293, progress: 0x4c32b7c322578eeb},
	{circuit: "TwoStageOpamp", backend: "ga", seed: 1,
		sha:      "950c1559b1622ca20868c5cc088cd5845d5ce7c4dd94855f9e1d554616bd040a",
		coverage: 0x3f6360c4d889ac3e, bestAvg: 0x4070619c28f5c28d, progress: 0xe4e1dbff16e443f2},
	{circuit: "TwoStageOpamp", backend: "ga", seed: 2,
		sha:      "11e0f3c359f43627f8fb0e8e6b01040a94ec16447223d49ba162bb68b80eb97f",
		coverage: 0x3f623e9bce2885bd, bestAvg: 0x406b5ac28f5c28ed, progress: 0x134d3c475466d5f2},
	{circuit: "TwoStageOpamp", backend: "ga", seed: 3,
		sha:      "d0683d29a5125099d73f79e596596444f92799ec29f76e2c9423ab0b44e1857d",
		coverage: 0x3f697ad14c223ae5, bestAvg: 0x406994147ae147aa, progress: 0x42ae36b9da2171fe},
	{circuit: "Mixer", backend: "anneal", seed: 1,
		sha:      "f085982e59628e2b2bc6704bb8c8baa3863fc199d0a91258b9a6948551a03a49",
		coverage: 0x3f5f9ed90e6d32af, bestAvg: 0x408962ccccccccd6, progress: 0xd4a5b22f35399fcd},
	{circuit: "Mixer", backend: "anneal", seed: 2,
		sha:      "919bb523b9a374a944a0b6c8d0e9e2c40ac3b63b1a76bee19b277132b4b1e6d3",
		coverage: 0x3f793255e0247445, bestAvg: 0x407f3f35c28f5c1e, progress: 0x27b40fee1365516},
	{circuit: "Mixer", backend: "anneal", seed: 3,
		sha:      "61906eb67d5651dc682b06755f8301e4bb9d3e600d0dddf1954a71b8255773fa",
		coverage: 0x3f5d60f4e57da34b, bestAvg: 0x4086ebcb851eb851, progress: 0x9ef4af513a324755},
	{circuit: "Mixer", backend: "ga", seed: 1,
		sha:      "99e80d7d9790521ff0ec7a898a19f932696cc124f938dddb40cfa83b719ff4e5",
		coverage: 0x3ef58e806a48f0e9, bestAvg: 0x406850c7ae147ae9, progress: 0x1b43fd67aed6f9a4},
	{circuit: "Mixer", backend: "ga", seed: 2,
		sha:      "c5e6b5da1d5891c8e7eb3a085d0232cc8de1e83e66ef8bb62693637913f945fa",
		coverage: 0x3f4a02829f80f520, bestAvg: 0x406c03147ae147b0, progress: 0x552ea50c622aac4d},
	{circuit: "Mixer", backend: "ga", seed: 3,
		sha:      "d4eabe61f6187d24a7f1e26179b2ebc9d260365cb453e28636d14d28c5d02a49",
		coverage: 0x3f450aa258febef6, bestAvg: 0x4070df51eb851eb6, progress: 0x7810debb1b342a27},
}

func TestGenerationGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are amd64-only: other architectures may fuse float multiply-adds")
	}
	for _, g := range goldenGenerations {
		name := g.circuit + "/" + g.backend + "/" + strconv.FormatInt(g.seed, 10)
		t.Run(name, func(t *testing.T) {
			c, err := Benchmark(g.circuit)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			res, err := Run(context.Background(), Request{
				Circuit: c,
				Backend: g.backend,
				Options: Options{
					Seed:   g.seed,
					Effort: EffortQuick,
					Progress: func(p Progress) {
						var b [16]byte
						binary.LittleEndian.PutUint64(b[:8], uint64(p.Placements))
						binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Coverage))
						h.Write(b[:])
					},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.Structure.SaveBinaryCompiled(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got := goldenGen{
				circuit:  g.circuit,
				backend:  g.backend,
				seed:     g.seed,
				sha:      hex.EncodeToString(sum[:]),
				coverage: math.Float64bits(res.Stats[0].FinalCoverage),
				bestAvg:  math.Float64bits(res.Stats[0].BestAvgCost),
				progress: h.Sum64(),
			}
			if got != g {
				t.Errorf("generation drifted from the golden row:\n got  %#v\n want %#v", got, g)
			}
		})
	}
}
