package cluster

import (
	"fmt"
	"math"
	"testing"

	"bos/internal/engine"
	"bos/internal/tsfile"
)

// TestRouterCollisionRule pins the scatter-gather tie-break: when shards
// disagree on a timestamp (a series mid-move), the owner's point wins, and
// among non-owners the highest shard ID wins. The points are written
// straight into the shard engines, bypassing ring placement.
func TestRouterCollisionRule(t *testing.T) {
	router, err := Open(DefaultManifest(4), t.TempDir(), engine.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	// A series owned by a middle shard has a lower and a higher non-owner.
	pick := func(prefix string) string {
		for i := 0; ; i++ {
			name := fmt.Sprintf("%s%d", prefix, i)
			if own := router.Owner(name); own > 0 && own < len(router.Shards())-1 {
				return name
			}
		}
	}
	intName, floatName := pick("collide.int."), pick("collide.float.")

	// holders[t] lists the shard roles that hold timestamp t.
	const (
		owner = iota
		lower
		higher
	)
	holders := [][]int{
		{owner, lower, higher},
		{lower, higher},
		{owner, lower},
		{owner, higher},
		{lower},
		{higher},
		{owner},
	}
	shardOf := func(name string, role int) int {
		own := router.Owner(name)
		switch role {
		case lower:
			return own - 1
		case higher:
			return own + 1
		}
		return own
	}
	value := func(shard, t int) int64 { return int64(1000*(shard+1) + t) }
	engineOf := func(shard int) *engine.Engine {
		return router.Shards()[shard].(*LocalShard).Engine()
	}
	wantInt := make([]tsfile.Point, len(holders))
	wantFloat := make([]tsfile.FloatPoint, len(holders))
	for ti, roles := range holders {
		for _, role := range roles {
			for _, name := range []string{intName, floatName} {
				sh := shardOf(name, role)
				v := value(sh, ti)
				if name == intName {
					err = engineOf(sh).Insert(name, int64(ti), v)
				} else {
					err = engineOf(sh).InsertFloat(name, int64(ti), float64(v)+0.5)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		// The expected winner: the owner if it holds t, else the higher
		// non-owner if it does, else the lower one.
		win := roles[0]
		for _, role := range roles {
			if role == owner || (role == higher && win != owner) {
				win = role
			}
		}
		wantInt[ti] = tsfile.Point{T: int64(ti), V: value(shardOf(intName, win), ti)}
		wantFloat[ti] = tsfile.FloatPoint{T: int64(ti), V: float64(value(shardOf(floatName, win), ti)) + 0.5}
	}

	check := func(stage string) {
		t.Helper()
		var got []tsfile.Point
		collect := func(p tsfile.Point) error {
			got = append(got, p)
			return nil
		}
		if err := router.QueryEach(intName, math.MinInt64, math.MaxInt64, collect); err != nil {
			t.Fatal(err)
		}
		samePoints(t, stage+" QueryEach", got, wantInt)
		got = nil
		if err := router.QueryFilterEach(intName, math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64, collect); err != nil {
			t.Fatal(err)
		}
		samePoints(t, stage+" QueryFilterEach", got, wantInt)
		floats, err := router.QueryFloats(floatName, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if len(floats) != len(wantFloat) {
			t.Fatalf("%s QueryFloats: %d points, want %d: %v", stage, len(floats), len(wantFloat), floats)
		}
		for i := range wantFloat {
			if floats[i] != wantFloat[i] {
				t.Fatalf("%s QueryFloats point %d = %+v, want %+v", stage, i, floats[i], wantFloat[i])
			}
		}
	}
	check("memtable")
	if err := router.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flushed")
}

func samePoints(t *testing.T, what string, got, want []tsfile.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d: %v", what, len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}
