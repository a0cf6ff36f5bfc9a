package packers

import (
	"encoding/hex"
	"strings"
	"testing"
)

func TestByNameRoundTrip(t *testing.T) {
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6, 1 << 40, -7}
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		enc := p.Pack(nil, vals)
		got, rest, err := p.Unpack(enc, nil)
		if err != nil {
			t.Fatalf("%s: Unpack: %v", name, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d bytes left over", name, len(rest))
		}
		if len(got) != len(vals) {
			t.Fatalf("%s: got %d values, want %d", name, len(got), len(vals))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("%s: value %d: got %d, want %d", name, i, got[i], vals[i])
			}
		}
	}
}

func TestByNameAliases(t *testing.T) {
	for _, alias := range []string{"bosb", "BOS-B", "bos_b", " BosB "} {
		p, err := ByName(alias)
		if err != nil {
			t.Fatalf("ByName(%q): %v", alias, err)
		}
		if p.Name() != "BOS-B" {
			t.Fatalf("ByName(%q).Name() = %q, want BOS-B", alias, p.Name())
		}
	}
}

func TestByNameUnknownListsValid(t *testing.T) {
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("want error for unknown packer")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not mention valid name %q", err, name)
		}
	}
}

func TestInstancesNotShared(t *testing.T) {
	a, _ := ByName("bosb")
	b, _ := ByName("bosb")
	if a == b {
		t.Fatal("ByName returned a shared packer instance")
	}
}

// FuzzPackerUnpack feeds arbitrary bytes to every registered packer's
// decoder. Each must return values or an error, never panic, and a decode
// that succeeds must only append to out: the values already there belong to
// earlier blocks.
func FuzzPackerUnpack(f *testing.F) {
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6, 1 << 40, -7}
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p.Pack(nil, vals))
	}
	// A classic PFOR block (n=2, b=64, two exceptions) whose first
	// exception link is 2^63.
	pforLink, err := hex.DecodeString("02004000020080000000000000000000000000000000")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pforLink)
	prefix := []int64{-1, 0, 1}
	f.Fuzz(func(t *testing.T, src []byte) {
		for _, name := range Names() {
			p, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			out := append([]int64(nil), prefix...)
			got, _, err := p.Unpack(src, out)
			if err != nil {
				continue
			}
			if len(got) < len(prefix) {
				t.Fatalf("%s: decode dropped earlier values: %d left", name, len(got))
			}
			for i, v := range prefix {
				if got[i] != v {
					t.Fatalf("%s: decode overwrote earlier value %d: %d, want %d", name, i, got[i], v)
				}
			}
		}
	})
}
