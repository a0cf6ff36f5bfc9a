package core

import "bos/internal/bitio"

// BlockInfo is the parsed header of one encoded block, for debugging and
// storage inspection (cmd/bosinspect). It reports what the planner chose
// without decoding the values.
type BlockInfo struct {
	N    int
	Mode string // "plain", "bos" or "parts"

	// Plain fields.
	Xmin  int64
	Width uint

	// BOS fields (Figure 7 header).
	NL, NU             int
	MinXc, MinXu       int64
	Alpha, Beta, Gamma uint

	// Parts fields.
	K int

	// BodyBytes is the total encoded size of the block.
	BodyBytes int
}

// InspectBlock parses the header of the next block in src and returns its
// description plus the remainder after the whole block. The values are
// decoded (and discarded) only to find the block boundary, so a block is
// described only if it decodes.
func InspectBlock(src []byte) (BlockInfo, []byte, error) {
	r := bitio.NewReader(src)
	h, err := readHead(r)
	if err != nil {
		return BlockInfo{}, nil, err
	}
	info := BlockInfo{N: h.n, Xmin: h.xmin}
	switch h.mode {
	case modePlain:
		info.Mode, info.Width = "plain", h.beta
	case modeBOS:
		info.Mode = "bos"
		info.NL, info.NU = h.nl, h.nu
		info.MinXc, info.MinXu = h.minXc, h.minXu
		info.Alpha, info.Beta, info.Gamma = h.alpha, h.beta, h.gamma
	default:
		info.Mode = "parts"
		k, err := r.ReadUvarint() // decodeParts checks its range below
		if err != nil {
			return BlockInfo{}, nil, corrupte("parts k", err)
		}
		info.K = int(k)
	}
	_, rest, err := DecodeBlock(src, nil)
	if err != nil {
		return BlockInfo{}, nil, err
	}
	info.BodyBytes = len(src) - len(rest)
	return info, rest, nil
}
