package ingest

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/learn"
)

const sampleCSV = `segment_id,length_m,time_sec,delay_sec,speed_limit
19,200,50,56,25
19,200,51,38,25
19,200,51,97,25
20,150,49,72,30
20,150,51,59,30
20,150,52,61,30
20,150,53,70,30
7,80,10,5,25
`

func TestReadGroups(t *testing.T) {
	groups, err := ReadGroups(strings.NewReader(sampleCSV), Spec{
		KeyColumn:   "segment_id",
		ValueColumn: "delay_sec",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Segment 7 has a single observation → dropped (MinSamples 2).
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if groups[0].Key != 19 || groups[1].Key != 20 {
		t.Fatalf("keys = %v, %v", groups[0].Key, groups[1].Key)
	}
	if groups[0].Sample.Size() != 3 || groups[1].Sample.Size() != 4 {
		t.Errorf("sizes = %d, %d", groups[0].Sample.Size(), groups[1].Sample.Size())
	}
	mean, _ := groups[0].Sample.Mean()
	if math.Abs(mean-(56+38+97)/3.0) > 1e-9 {
		t.Errorf("segment 19 mean = %g", mean)
	}
}

func TestReadGroupsErrors(t *testing.T) {
	good := Spec{KeyColumn: "segment_id", ValueColumn: "delay_sec"}
	cases := []struct {
		name string
		csv  string
		spec Spec
	}{
		{"missing key column", sampleCSV, Spec{KeyColumn: "nope", ValueColumn: "delay_sec"}},
		{"missing value column", sampleCSV, Spec{KeyColumn: "segment_id", ValueColumn: "nope"}},
		{"no spec", sampleCSV, Spec{}},
		{"empty input", "", good},
		{"bad key", "segment_id,delay_sec\nx,1\n", good},
		{"bad value", "segment_id,delay_sec\n1,x\n", good},
		{"ragged row", "segment_id,delay_sec\n1,2,3\n", good},
		{"negative min samples", sampleCSV, Spec{KeyColumn: "segment_id", ValueColumn: "delay_sec", MinSamples: -1}},
	}
	for _, c := range cases {
		if _, err := ReadGroups(strings.NewReader(c.csv), c.spec); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestLearnGroupsAndRead(t *testing.T) {
	tuples, err := Read(strings.NewReader(sampleCSV), Spec{
		KeyColumn:   "segment_id",
		ValueColumn: "delay_sec",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("tuples = %d", len(tuples))
	}
	lt := tuples[0]
	if lt.Key != 19 || lt.Field.N != 3 {
		t.Errorf("tuple = %+v", lt)
	}
	nd, ok := lt.Field.Dist.(dist.Normal)
	if !ok {
		t.Fatalf("learned %T, want Normal", lt.Field.Dist)
	}
	if math.Abs(nd.Mu-63.6666666667) > 1e-6 {
		t.Errorf("learned mean = %g", nd.Mu)
	}
}

func TestReadWithCustomLearner(t *testing.T) {
	tuples, err := Read(strings.NewReader(sampleCSV), Spec{
		KeyColumn:   "segment_id",
		ValueColumn: "delay_sec",
		Learner:     learn.EmpiricalLearner{},
		MinSamples:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only segment 20 has ≥ 4 observations.
	if len(tuples) != 1 || tuples[0].Key != 20 {
		t.Fatalf("tuples = %+v", tuples)
	}
	if _, ok := tuples[0].Field.Dist.(*dist.Discrete); !ok {
		t.Errorf("learned %T, want *dist.Discrete", tuples[0].Field.Dist)
	}
}

func TestMinSamplesOne(t *testing.T) {
	groups, err := ReadGroups(strings.NewReader(sampleCSV), Spec{
		KeyColumn:   "segment_id",
		ValueColumn: "delay_sec",
		MinSamples:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3 with MinSamples=1", len(groups))
	}
}
