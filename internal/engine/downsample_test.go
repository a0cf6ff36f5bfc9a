package engine

import (
	"errors"
	"testing"
)

func TestDownsample(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	// Two windows of 10: t in [0,10) and [10,20).
	for _, p := range []struct{ t, v int64 }{
		{0, 4}, {3, 8}, {9, 6}, // window 0: count 3, min 4, max 8, sum 18
		{10, 100}, {15, 50}, // window 10: count 2, min 50, max 100, sum 150
		{25, 7}, // window 20: singleton
	} {
		e.Insert("s", p.t, p.v)
	}
	buckets, err := e.Downsample("s", 0, 29, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 3 {
		t.Fatalf("buckets = %+v", buckets)
	}
	b := buckets[0]
	if b.Start != 0 || b.Count != 3 || b.Min != 4 || b.Max != 8 || b.Sum != 18 {
		t.Errorf("window 0 = %+v", b)
	}
	if buckets[1].Avg() != 75 {
		t.Errorf("window 10 avg = %v", buckets[1].Avg())
	}
	if buckets[2].Start != 20 || buckets[2].Count != 1 {
		t.Errorf("window 20 = %+v", buckets[2])
	}
}

func TestDownsampleSkipsEmptyWindows(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	e.Insert("s", 0, 1)
	e.Insert("s", 100, 2)
	buckets, err := e.Downsample("s", 0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 {
		t.Fatalf("buckets = %+v", buckets)
	}
}

func TestDownsampleBadWindow(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	if _, err := e.Downsample("s", 0, 10, 0); !errors.Is(err, ErrBadWindow) {
		t.Errorf("err = %v", err)
	}
	if _, err := e.Downsample("s", 0, 10, -5); !errors.Is(err, ErrBadWindow) {
		t.Errorf("err = %v", err)
	}
}

func TestDownsampleSpansFlushBoundary(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	for i := int64(0); i < 100; i++ {
		e.Insert("s", i, i)
	}
	e.Flush()
	for i := int64(100); i < 200; i++ {
		e.Insert("s", i, i)
	}
	buckets, err := e.Downsample("s", 0, 199, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 4 {
		t.Fatalf("%d buckets", len(buckets))
	}
	for i, b := range buckets {
		if b.Count != 50 {
			t.Errorf("bucket %d count %d", i, b.Count)
		}
	}
}
