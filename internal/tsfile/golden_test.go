package tsfile

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// TestEncodeSeriesGolden pins the chunk bytes EncodeSeries writes. An int
// series (with negatives and int64-range neighbours), a scaled-float series
// and a raw-float series are each encoded under the file default packer and
// three registry packers, at block sizes 1024 and 128. Every chunk's footer
// metadata and the SHA-256 of its body must equal the values recorded when
// the test was written, so any change to the chunk layout, a packer's output
// or the statistics shows here.
func TestEncodeSeriesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 3000
	ints := make([]Point, n)
	scaled := make([]FloatPoint, n)
	raw := make([]FloatPoint, n)
	tt := int64(-5000)
	for i := range ints {
		tt += 1 + rng.Int63n(9)
		v := rng.Int63n(2000) - 1000
		switch i % 97 {
		case 3:
			v = math.MaxInt64
		case 4:
			v = math.MaxInt64 - 1
		case 50:
			v = math.MinInt64
		case 51:
			v = math.MinInt64 + 1
		}
		ints[i] = Point{T: tt, V: v}
		scaled[i] = FloatPoint{T: tt, V: float64(rng.Intn(200000)-100000) / 100}
		raw[i] = FloatPoint{T: tt, V: rng.NormFloat64()}
	}
	series := map[string]struct {
		encode func(Options, string) (EncodedChunk, error)
		meta   ChunkMeta // every field but EncodedBytes and Packer
	}{
		"int": {
			func(o Options, pn string) (EncodedChunk, error) { return EncodeSeries(o, ints, pn) },
			ChunkMeta{Count: n, MinT: -4998, MaxT: 9799, MinV: math.MinInt64, MaxV: math.MaxInt64, Kind: kindInt, Sum: 56942, HasStats: true},
		},
		"scaled": {
			func(o Options, pn string) (EncodedChunk, error) { return EncodeSeries(o, scaled, pn) },
			ChunkMeta{Count: n, MinT: -4998, MaxT: 9799, MinV: -99921, MaxV: 99912, Kind: kindScaled, Precision: 2, Sum: -1312237, HasStats: true},
		},
		"raw": {
			func(o Options, pn string) (EncodedChunk, error) { return EncodeSeries(o, raw, pn) },
			ChunkMeta{Count: n, MinT: -4998, MaxT: 9799, MinV: math.MinInt64, MaxV: math.MaxInt64, Kind: kindRaw},
		},
	}
	for _, g := range []struct {
		series, packer string
		blockSize      int
		bytes          int
		sha256         string
	}{
		{"int", "", 1024, 5827, "dcc20ff4012d35a94800898a09af817e0e1c7f5cb82a504caff3e31f95a810a7"},
		{"int", "bp", 1024, 26716, "afb3681fde8978823f8aab6dadd621210d962e918b0b85c10e3e5faa01fd5e12"},
		{"int", "bosm", 1024, 6068, "d73ed89bce2d7c8040ac98f637e7c1ab3436a84452ea0b918cea2348285b9599"},
		{"int", "fastpfor", 1024, 26722, "f53b648f7382e81a9d8443fc9cd66259650e4d46eda2fb3da88e6c6fb6e40d88"},
		{"int", "", 128, 6796, "7c2a0f3684e1270d7ea1533f597d0af5b66293901bf804d49f46b4b479f264bb"},
		{"int", "bp", 128, 26063, "2f9da2813231fb69667d784c591943434c43ae8d88a7d4d53419dbb054985311"},
		{"int", "bosm", 128, 6922, "9a2966ae32a0517f69cd6eb51140b4e264e2061a54905e029256185c3abb9c66"},
		{"int", "fastpfor", 128, 26083, "dc71ce0ea539288adc1deee5f474bf7fa401ab04854f9719234bb5166dc27adc"},
		{"scaled", "", 1024, 8073, "d070ecec674c35650ae9db96594af7311097c7068effbf615e118bac97cf040b"},
		{"scaled", "bp", 1024, 9445, "fe427a32972c2da639fcdc0af6a5ddf8f52b90b60bfffb3f521ac6f66d369ddf"},
		{"scaled", "bosm", 1024, 8351, "32874c704164a6220f4738dc2465d966305c3262d080ce61e7dffb4d95de12c8"},
		{"scaled", "fastpfor", 1024, 9451, "61697cd399a09467b04bf50308397a9af27aac707f521ac546ef91f2ce8a6787"},
		{"scaled", "", 128, 8567, "c1d01bc63837bfec75963477bbb8d194858e40cf713815dc497fcbd9f52b3759"},
		{"scaled", "bp", 128, 8645, "6b41810b6fea766c35bb9223df2a3744ede982d3ec7025e03d4ac3a86e0dcd2f"},
		{"scaled", "bosm", 128, 8742, "3c3c99a741998b26e19fbe832b02b6b85be9de12e74d42304557c1599f692201"},
		{"scaled", "fastpfor", 128, 8665, "495db1ec12c8d22d485a975a8020486dd6b8130f9ef4aa687e5488ae268d49f1"},
		{"raw", "", 1024, 22771, "3ad289aace1a6b42ff987c8767b53e02b8d1b623dd1f336ae3feb70cacbfed5a"},
		{"raw", "bp", 1024, 26716, "44694074fd7f8dd89bd7d1f3b3fc60a8009020245b7cd6eade6f0c3638971518"},
		{"raw", "bosm", 1024, 23173, "df8dbf516010945ca0a432622ab9ddf1205d6c0604a79d89748b09b68d1b878f"},
		{"raw", "fastpfor", 1024, 26722, "47b542f30655f8df3027144277db7b5ba787ba6da4a7195ceca6af8f9ef402ee"},
		{"raw", "", 128, 23488, "d65eab0cb66a6e700757b10d54e94114344f0b0e79217cf9b82c1f640918aa11"},
		{"raw", "bp", 128, 26063, "f2d842f57f1fe37da8224655879a13bc0896e2bc14e8c7e9a8c0053e9e5f0c39"},
		{"raw", "bosm", 128, 23718, "18b41a022942a2601b55b672597add883afd38d8d32c17aad57630200576204a"},
		{"raw", "fastpfor", 128, 25823, "b8e386a2c9ec09a8c23f0a8ea54be7341a94203189d6e1e694ab6c97db7ec7ec"},
	} {
		s := series[g.series]
		c, err := s.encode(Options{BlockSize: g.blockSize}, g.packer)
		if err != nil {
			t.Fatalf("%s/%q/%d: %v", g.series, g.packer, g.blockSize, err)
		}
		want := s.meta
		want.EncodedBytes, want.Packer = g.bytes, g.packer
		if c.Meta != want {
			t.Errorf("%s/%q/%d: meta\n got %+v\nwant %+v", g.series, g.packer, g.blockSize, c.Meta, want)
		}
		if sum := sha256.Sum256(c.Body); hex.EncodeToString(sum[:]) != g.sha256 {
			t.Errorf("%s/%q/%d: body SHA-256 %x, want %s", g.series, g.packer, g.blockSize, sum, g.sha256)
		}
	}
}
