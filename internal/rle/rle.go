// Package rle implements run-length encoding (Golomb 1966) parameterized by
// a bit-packing operator: the series is rewritten as (value, run-length)
// pairs, the value column is handed to the configured codec.Packer and the
// run lengths are varint-coded (as in the IoTDB/Parquet hybrid RLE layout).
// This is the RLE+BP / RLE+PFOR / RLE+BOS family of the paper's evaluation.
package rle

import (
	"fmt"

	"bos/internal/codec"
)

// Codec is run-length encoding over a pluggable packer.
type Codec struct {
	Packer    codec.Packer
	BlockSize int
}

// New returns an RLE codec over p (block size defaults to
// codec.DefaultBlockSize).
func New(p codec.Packer, blockSize int) *Codec {
	if blockSize <= 0 {
		blockSize = codec.DefaultBlockSize
	}
	return &Codec{Packer: p, BlockSize: blockSize}
}

// Name implements codec.IntCodec.
func (c *Codec) Name() string { return "RLE+" + c.Packer.Name() }

// Encode implements codec.IntCodec.
func (c *Codec) Encode(dst []byte, vals []int64) []byte {
	var runVals, runLens []int64
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		runVals = append(runVals, vals[i])
		runLens = append(runLens, int64(j-i))
		i = j
	}
	dst = codec.AppendUvarint(dst, uint64(len(vals)))
	dst = codec.AppendUvarint(dst, uint64(len(runVals)))
	dst = c.packAll(dst, runVals)
	for _, rl := range runLens {
		dst = codec.AppendUvarint(dst, uint64(rl)-1) // runs are >= 1
	}
	return dst
}

func (c *Codec) packAll(dst []byte, vals []int64) []byte {
	for off := 0; off < len(vals); off += c.BlockSize {
		end := off + c.BlockSize
		if end > len(vals) {
			end = len(vals)
		}
		dst = c.Packer.Pack(dst, vals[off:end])
	}
	return dst
}

func (c *Codec) unpackN(src []byte, n int) ([]int64, []byte, error) {
	// Reserve at most one block's worth: decoded blocks grow the rest.
	out := make([]int64, 0, min(n, codec.MaxBlockLen))
	var err error
	for len(out) < n {
		before := len(out)
		out, src, err = c.Packer.Unpack(src, out)
		if err != nil {
			return nil, nil, err
		}
		if len(out) == before {
			return nil, nil, fmt.Errorf("rle: empty block before %d/%d values", len(out), n)
		}
	}
	if len(out) != n {
		return nil, nil, fmt.Errorf("rle: decoded %d values, want %d", len(out), n)
	}
	return out, src, nil
}

// Decode implements codec.IntCodec.
func (c *Codec) Decode(src []byte) ([]int64, error) {
	n64, src, err := codec.ReadUvarint(src)
	if err != nil {
		return nil, fmt.Errorf("rle: count: %w", err)
	}
	nRuns64, src, err := codec.ReadUvarint(src)
	if err != nil {
		return nil, fmt.Errorf("rle: run count: %w", err)
	}
	if n64 > uint64(codec.MaxBlockLen)*64 || nRuns64 > n64 {
		return nil, fmt.Errorf("rle: implausible counts %d/%d", n64, nRuns64)
	}
	n, nRuns := int(n64), int(nRuns64)
	runVals, src, err := c.unpackN(src, nRuns)
	if err != nil {
		return nil, fmt.Errorf("rle: values: %w", err)
	}
	runLens := make([]int64, nRuns)
	for k := range runLens {
		var rl uint64
		rl, src, err = codec.ReadUvarint(src)
		if err != nil {
			return nil, fmt.Errorf("rle: run length %d: %w", k, err)
		}
		if rl >= uint64(n) {
			return nil, fmt.Errorf("rle: run length %d out of range", rl)
		}
		runLens[k] = int64(rl) + 1
	}
	out := make([]int64, 0, min(n, codec.MaxBlockLen))
	for k := 0; k < nRuns; k++ {
		rl := runLens[k]
		if rl <= 0 || rl > int64(n-len(out)) {
			return nil, fmt.Errorf("rle: run %d has length %d with %d slots left", k, rl, n-len(out))
		}
		for i := int64(0); i < rl; i++ {
			out = append(out, runVals[k])
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("rle: expanded to %d values, want %d", len(out), n)
	}
	return out, nil
}
