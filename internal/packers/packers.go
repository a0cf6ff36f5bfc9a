// Package packers maps user-facing packer names to codec.Packer
// implementations. Every CLI that takes a -packer flag (bosdb, bosfile,
// bosserver) resolves it here, so the accepted vocabulary and the error text
// listing the valid values stay consistent across binaries.
package packers

import (
	"fmt"
	"sort"
	"strings"

	"bos/internal/bitpack"
	"bos/internal/codec"
	"bos/internal/core"
	"bos/internal/pfor"
)

// registry maps canonical names to constructors. Constructors (not shared
// values) so every caller gets its own packer instance: core.Packer carries
// planning state and must not be shared across goroutines.
var registry = map[string]func() codec.Packer{
	"bosb":       func() codec.Packer { return core.NewPacker(core.SeparationBitWidth) },
	"bosv":       func() codec.Packer { return core.NewPacker(core.SeparationValue) },
	"bosm":       func() codec.Packer { return core.NewPacker(core.SeparationMedian) },
	"bp":         func() codec.Packer { return bitpack.Packer{} },
	"pfor":       func() codec.Packer { return pfor.Packer{} },
	"newpfor":    func() codec.Packer { return pfor.NewPFOR{} },
	"optpfor":    func() codec.Packer { return pfor.OptPFOR{} },
	"fastpfor":   func() codec.Packer { return pfor.FastPFOR{} },
	"simplepfor": func() codec.Packer { return pfor.SimplePFOR{} },
}

// canonical lower-cases the name and strips '-'/'_' separators, so "BOS-B",
// "bos_b" and "bosb" all resolve to the same entry.
func canonical(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	name = strings.ReplaceAll(name, "-", "")
	return strings.ReplaceAll(name, "_", "")
}

// ByName resolves a packer name. Unknown names return an error listing every
// valid value.
func ByName(name string) (codec.Packer, error) {
	if f, ok := registry[canonical(name)]; ok {
		return f(), nil
	}
	return nil, fmt.Errorf("unknown packer %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// NameOf returns the registry name of a packer: the canonical form of its
// name when the registry holds one, "" otherwise. A packer named like a
// registry entry stands for that entry: writers encode with the entry's
// packer and record its name.
func NameOf(p codec.Packer) string {
	if name := canonical(p.Name()); registry[name] != nil {
		return name
	}
	return ""
}

// Names lists the canonical packer names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
