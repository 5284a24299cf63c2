package core

// Golden partitions of every built-in strategy. Each row is one strategy
// under one of the paper's four tests on m cores and one deadline model,
// over the same 50 generated task sets; it pins how many the strategy
// accepted and an FNV-64a digest of every outcome in seed order: for an
// accepted set, each core's task IDs in placement order; for a rejected
// one, the ID of the task the FailError names. A refactor of the
// strategies that moves a row changed a partition, not a stale golden.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// goldenPartitionSets generates the sets every row runs: for seed S in
// 1–50, taskgen.DefaultConfig(m, U, 0.25, 0.3) with U cycling through
// 0.35, 0.45, 0.55, 0.65 by S mod 4 — the sweep of the CLI equivalence
// recipe (scripts/equivalence.sh), at m cores.
func goldenPartitionSets(t *testing.T, m int, constrained bool) []mcs.TaskSet {
	t.Helper()
	sets := make([]mcs.TaskSet, 0, 50)
	for seed := int64(1); seed <= 50; seed++ {
		cfg := taskgen.DefaultConfig(m, []float64{0.35, 0.45, 0.55, 0.65}[seed%4], 0.25, 0.3)
		cfg.Constrained = constrained
		ts, err := taskgen.Generate(rand.New(rand.NewSource(seed)), cfg)
		if err != nil {
			t.Fatalf("m=%d constrained=%v seed %d: %v", m, constrained, seed, err)
		}
		sets = append(sets, ts)
	}
	return sets
}

// partitionDigest partitions every set and returns the accepted count and
// the digest of all outcomes.
func partitionDigest(t *testing.T, s Strategy, test Test, m int, sets []mcs.TaskSet) string {
	t.Helper()
	h := fnv.New64a()
	accepted := 0
	for i, ts := range sets {
		p, err := s.Partition(ts, m, test)
		var fail FailError
		switch {
		case err == nil:
			accepted++
			for k, c := range p.Cores {
				fmt.Fprintf(h, "%d:%d:", i, k)
				for _, task := range c {
					fmt.Fprintf(h, "%d,", task.ID)
				}
			}
		case errors.As(err, &fail):
			fmt.Fprintf(h, "%d:fail:%d;", i, fail.Task.ID)
		default:
			t.Fatalf("%s-%s m=%d set %d: %v", s.Name(), test.Name(), m, i, err)
		}
	}
	return fmt.Sprintf("%d %016x", accepted, h.Sum64())
}

func TestGoldenStrategyPartitions(t *testing.T) {
	for _, m := range []int{2, 4, 8} {
		for _, constrained := range []bool{false, true} {
			model := "implicit"
			if constrained {
				model = "constrained"
			}
			sets := goldenPartitionSets(t, m, constrained)
			for _, test := range Tests() {
				if constrained && ImplicitOnly(test) {
					continue
				}
				for _, s := range Strategies() {
					key := fmt.Sprintf("%s %s m=%d %s", s.Name(), test.Name(), m, model)
					got := partitionDigest(t, s, test, m, sets)
					if want := goldenStrategyPartitions[key]; got != want {
						t.Errorf("%q: %q, golden %q", key, got, want)
					}
				}
			}
		}
	}
}

// goldenStrategyPartitions maps "<strategy> <test> m=<m> <model>" to
// "<accepted of 50> <digest>".
var goldenStrategyPartitions = map[string]string{
	"CA-UDP EDF-VD m=2 implicit":             "50 bc535a76a6f4f65e",
	"CU-UDP EDF-VD m=2 implicit":             "50 54d86c3404706ab4",
	"CA(nosort)-F-F EDF-VD m=2 implicit":     "50 fc6c277a4e1ca702",
	"CA-F-F EDF-VD m=2 implicit":             "50 cbf728415ca67588",
	"CA-Wu-F EDF-VD m=2 implicit":            "50 3cf70dec8dd9328c",
	"ECA-Wu-F EDF-VD m=2 implicit":           "50 edf23197e92f9018",
	"FFD EDF-VD m=2 implicit":                "50 69bf9861990de10a",
	"WFD EDF-VD m=2 implicit":                "49 0e3d7a40d2fdde8c",
	"CA-UDP ECDF m=2 implicit":               "50 6df425d554671f0e",
	"CU-UDP ECDF m=2 implicit":               "50 9a7ffd3df59742ea",
	"CA(nosort)-F-F ECDF m=2 implicit":       "50 d7083c65b95972f6",
	"CA-F-F ECDF m=2 implicit":               "50 100ed7c463be8284",
	"CA-Wu-F ECDF m=2 implicit":              "50 aa72aa2058db5cc6",
	"ECA-Wu-F ECDF m=2 implicit":             "50 c93d7fd83dd26bd2",
	"FFD ECDF m=2 implicit":                  "50 b282ea4af71405ca",
	"WFD ECDF m=2 implicit":                  "50 fb3d069a2a086dd6",
	"CA-UDP EY m=2 implicit":                 "50 9e883d5d0ede2536",
	"CU-UDP EY m=2 implicit":                 "50 27631d5230f43d0a",
	"CA(nosort)-F-F EY m=2 implicit":         "50 7ccd6a5cf0ceb586",
	"CA-F-F EY m=2 implicit":                 "50 dbc7a54884f929bc",
	"CA-Wu-F EY m=2 implicit":                "50 aa72aa2058db5cc6",
	"ECA-Wu-F EY m=2 implicit":               "50 c93d7fd83dd26bd2",
	"FFD EY m=2 implicit":                    "50 1ceb55a788778d68",
	"WFD EY m=2 implicit":                    "50 fb3d069a2a086dd6",
	"CA-UDP AMC-max m=2 implicit":            "50 8fa84bfafa7415e8",
	"CU-UDP AMC-max m=2 implicit":            "50 dd41a85d9b1fa3ea",
	"CA(nosort)-F-F AMC-max m=2 implicit":    "50 c126852399d9720c",
	"CA-F-F AMC-max m=2 implicit":            "50 b2455cac07e0ae1a",
	"CA-Wu-F AMC-max m=2 implicit":           "50 9ccc43b971eef29c",
	"ECA-Wu-F AMC-max m=2 implicit":          "50 9b3b42c79b8ddcb0",
	"FFD AMC-max m=2 implicit":               "50 fbb5b0baff0e7d8a",
	"WFD AMC-max m=2 implicit":               "49 59613e7e9d5dbb69",
	"CA-UDP ECDF m=2 constrained":            "36 5b64a5f4c3d9cd67",
	"CU-UDP ECDF m=2 constrained":            "38 68ca759a5ed46fb8",
	"CA(nosort)-F-F ECDF m=2 constrained":    "35 f4e2e4ab0eecf688",
	"CA-F-F ECDF m=2 constrained":            "35 9816786724345583",
	"CA-Wu-F ECDF m=2 constrained":           "34 a2f1c92ab97c4911",
	"ECA-Wu-F ECDF m=2 constrained":          "35 3be2ff0dcd004e9a",
	"FFD ECDF m=2 constrained":               "37 77ffad9f091d6a44",
	"WFD ECDF m=2 constrained":               "35 3057078df56e2344",
	"CA-UDP EY m=2 constrained":              "37 c77abaf736012cde",
	"CU-UDP EY m=2 constrained":              "38 68ca759a5ed46fb8",
	"CA(nosort)-F-F EY m=2 constrained":      "35 533f58da61b08ac6",
	"CA-F-F EY m=2 constrained":              "35 66196f7583467691",
	"CA-Wu-F EY m=2 constrained":             "35 a121bdf1ddb4f3b0",
	"ECA-Wu-F EY m=2 constrained":            "36 d2fc263cdc460a67",
	"FFD EY m=2 constrained":                 "37 77ffad9f091d6a44",
	"WFD EY m=2 constrained":                 "34 1ed21d97db5698b5",
	"CA-UDP AMC-max m=2 constrained":         "36 05b48ebeff8321e7",
	"CU-UDP AMC-max m=2 constrained":         "38 679aefd8bf9297c8",
	"CA(nosort)-F-F AMC-max m=2 constrained": "33 9361480e24f1e79d",
	"CA-F-F AMC-max m=2 constrained":         "34 829a0cc11a152732",
	"CA-Wu-F AMC-max m=2 constrained":        "33 0e41c45f235fac8c",
	"ECA-Wu-F AMC-max m=2 constrained":       "34 89d889f4c1ffdac3",
	"FFD AMC-max m=2 constrained":            "37 88aad6b1a1744e04",
	"WFD AMC-max m=2 constrained":            "37 e71ae84031b59f40",
	"CA-UDP EDF-VD m=4 implicit":             "48 5895302b4c6c54ff",
	"CU-UDP EDF-VD m=4 implicit":             "49 a47ae055ab3876cf",
	"CA(nosort)-F-F EDF-VD m=4 implicit":     "49 e56fe3d0ca9bcc3a",
	"CA-F-F EDF-VD m=4 implicit":             "49 8021db494b1951eb",
	"CA-Wu-F EDF-VD m=4 implicit":            "47 d66b9d48c980a72f",
	"ECA-Wu-F EDF-VD m=4 implicit":           "48 82377b63b52ff8d5",
	"FFD EDF-VD m=4 implicit":                "49 d625ea3c93bdd5ab",
	"WFD EDF-VD m=4 implicit":                "49 41de8fb8211d9d39",
	"CA-UDP ECDF m=4 implicit":               "49 b8b8754b596aad24",
	"CU-UDP ECDF m=4 implicit":               "50 8c0562750175299c",
	"CA(nosort)-F-F ECDF m=4 implicit":       "50 457f813db5ba2958",
	"CA-F-F ECDF m=4 implicit":               "50 550b79502e15c39c",
	"CA-Wu-F ECDF m=4 implicit":              "48 d577f97832eebf28",
	"ECA-Wu-F ECDF m=4 implicit":             "49 e55d10d90be614d6",
	"FFD ECDF m=4 implicit":                  "50 dd28eba48627c152",
	"WFD ECDF m=4 implicit":                  "50 d44241e0c7cfbc14",
	"CA-UDP EY m=4 implicit":                 "49 fc6d0123428ea152",
	"CU-UDP EY m=4 implicit":                 "50 8bb83c8f0bdab214",
	"CA(nosort)-F-F EY m=4 implicit":         "50 f260e8079965216c",
	"CA-F-F EY m=4 implicit":                 "50 edde5dfbaab359d4",
	"CA-Wu-F EY m=4 implicit":                "48 d577f97832eebf28",
	"ECA-Wu-F EY m=4 implicit":               "49 e55d10d90be614d6",
	"FFD EY m=4 implicit":                    "50 c241b6ff231162f4",
	"WFD EY m=4 implicit":                    "50 e5d1bc1500b00124",
	"CA-UDP AMC-max m=4 implicit":            "49 d9218b34ee31002a",
	"CU-UDP AMC-max m=4 implicit":            "50 a66890a92ee28a98",
	"CA(nosort)-F-F AMC-max m=4 implicit":    "49 c8eb0e48a95041a8",
	"CA-F-F AMC-max m=4 implicit":            "50 927bd6d80c2f8618",
	"CA-Wu-F AMC-max m=4 implicit":           "48 5554f284f308aec0",
	"ECA-Wu-F AMC-max m=4 implicit":          "49 60373c76e6b43a46",
	"FFD AMC-max m=4 implicit":               "50 00693af79f282ea0",
	"WFD AMC-max m=4 implicit":               "48 ee2e21a7f2dce4f6",
	"CA-UDP ECDF m=4 constrained":            "36 1132acd239d29ac0",
	"CU-UDP ECDF m=4 constrained":            "40 ab444e0a2fd6da3b",
	"CA(nosort)-F-F ECDF m=4 constrained":    "36 cd00bfe400cba9cb",
	"CA-F-F ECDF m=4 constrained":            "41 bcc7d32e402ee0ff",
	"CA-Wu-F ECDF m=4 constrained":           "36 6618f32db4d9f758",
	"ECA-Wu-F ECDF m=4 constrained":          "37 e4d6eb4168ac70e8",
	"FFD ECDF m=4 constrained":               "43 86596131644f5c6d",
	"WFD ECDF m=4 constrained":               "37 de6b34a0f45367cf",
	"CA-UDP EY m=4 constrained":              "36 d5a9eb607123e0fa",
	"CU-UDP EY m=4 constrained":              "40 20fbfb6e33bb2b8b",
	"CA(nosort)-F-F EY m=4 constrained":      "37 47aa5b094d39f680",
	"CA-F-F EY m=4 constrained":              "41 ee36576ac5744cbb",
	"CA-Wu-F EY m=4 constrained":             "36 56ae61c253f34396",
	"ECA-Wu-F EY m=4 constrained":            "37 ba240a1a8693a3ca",
	"FFD EY m=4 constrained":                 "43 8f61499402a410a3",
	"WFD EY m=4 constrained":                 "37 435df5303c0b8c9b",
	"CA-UDP AMC-max m=4 constrained":         "33 b6ec8a715ba0e588",
	"CU-UDP AMC-max m=4 constrained":         "38 ab30c04d93f08b4a",
	"CA(nosort)-F-F AMC-max m=4 constrained": "34 253a390d26392ad3",
	"CA-F-F AMC-max m=4 constrained":         "37 5c26439f515f71cd",
	"CA-Wu-F AMC-max m=4 constrained":        "36 8a5c3386f790c67b",
	"ECA-Wu-F AMC-max m=4 constrained":       "37 5427725705f4897f",
	"FFD AMC-max m=4 constrained":            "39 a8b2e978a9db90fe",
	"WFD AMC-max m=4 constrained":            "36 7ef27b8df4a3fbf9",
	"CA-UDP EDF-VD m=8 implicit":             "43 7bb0cba913fd4973",
	"CU-UDP EDF-VD m=8 implicit":             "50 2bb876dbaed7d125",
	"CA(nosort)-F-F EDF-VD m=8 implicit":     "50 75bf4441efb41657",
	"CA-F-F EDF-VD m=8 implicit":             "50 8fa9fa8d255bca03",
	"CA-Wu-F EDF-VD m=8 implicit":            "41 25be76aee7af4920",
	"ECA-Wu-F EDF-VD m=8 implicit":           "49 b54318a398729c65",
	"FFD EDF-VD m=8 implicit":                "50 6683b39a2a8529c9",
	"WFD EDF-VD m=8 implicit":                "50 583c65d015325ba7",
	"CA-UDP ECDF m=8 implicit":               "45 b8cdc99c546b6797",
	"CU-UDP ECDF m=8 implicit":               "50 7210c53c0be94c49",
	"CA(nosort)-F-F ECDF m=8 implicit":       "50 bd3d716a3daad841",
	"CA-F-F ECDF m=8 implicit":               "50 b9549abfccbe07d5",
	"CA-Wu-F ECDF m=8 implicit":              "44 d587e8dc4ffad724",
	"ECA-Wu-F ECDF m=8 implicit":             "50 1808293fae8f096f",
	"FFD ECDF m=8 implicit":                  "50 eefb5f62bc53aec3",
	"WFD ECDF m=8 implicit":                  "50 f7ae56274aef81d5",
	"CA-UDP EY m=8 implicit":                 "45 2b49ee0e5644322b",
	"CU-UDP EY m=8 implicit":                 "50 2ba596336dc6361d",
	"CA(nosort)-F-F EY m=8 implicit":         "50 9b2406bce207c12d",
	"CA-F-F EY m=8 implicit":                 "50 6165dd22e1c5eded",
	"CA-Wu-F EY m=8 implicit":                "44 d587e8dc4ffad724",
	"ECA-Wu-F EY m=8 implicit":               "50 1808293fae8f096f",
	"FFD EY m=8 implicit":                    "50 d78e62519cb058bb",
	"WFD EY m=8 implicit":                    "50 c004d3f85ee063c1",
	"CA-UDP AMC-max m=8 implicit":            "44 0a7daab903df84a4",
	"CU-UDP AMC-max m=8 implicit":            "50 ea443f591caa3fdf",
	"CA(nosort)-F-F AMC-max m=8 implicit":    "50 65bca5bf45b1bb5f",
	"CA-F-F AMC-max m=8 implicit":            "50 c570f2ef8c2e24ad",
	"CA-Wu-F AMC-max m=8 implicit":           "43 42867902605e3561",
	"ECA-Wu-F AMC-max m=8 implicit":          "50 bc596adba3345bd9",
	"FFD AMC-max m=8 implicit":               "50 163a79795d88bfff",
	"WFD AMC-max m=8 implicit":               "50 b883d625469ce675",
	"CA-UDP ECDF m=8 constrained":            "30 c726b9bdf569b807",
	"CU-UDP ECDF m=8 constrained":            "40 f29d4c0b4bd6025c",
	"CA(nosort)-F-F ECDF m=8 constrained":    "36 d12e86005d6fdc47",
	"CA-F-F ECDF m=8 constrained":            "34 132d58873ba56a69",
	"CA-Wu-F ECDF m=8 constrained":           "31 0d5f2e3d9147590c",
	"ECA-Wu-F ECDF m=8 constrained":          "37 7291618be3dee777",
	"FFD ECDF m=8 constrained":               "39 e2ca275a59c713f2",
	"WFD ECDF m=8 constrained":               "32 f5991281555936a4",
	"CA-UDP EY m=8 constrained":              "30 bb5936ee4f1aea0a",
	"CU-UDP EY m=8 constrained":              "39 9e3ae91a820f6956",
	"CA(nosort)-F-F EY m=8 constrained":      "36 7d87d474d0fd1591",
	"CA-F-F EY m=8 constrained":              "35 87a147d8fc1433b2",
	"CA-Wu-F EY m=8 constrained":             "31 d7d423b127393fad",
	"ECA-Wu-F EY m=8 constrained":            "37 bf1c567c10298bf2",
	"FFD EY m=8 constrained":                 "40 bcf7c46f4392218c",
	"WFD EY m=8 constrained":                 "32 a285e475965578f6",
	"CA-UDP AMC-max m=8 constrained":         "25 57a92abaf68c26fe",
	"CU-UDP AMC-max m=8 constrained":         "37 0a40676daf8c3394",
	"CA(nosort)-F-F AMC-max m=8 constrained": "33 3f95c20f7a681444",
	"CA-F-F AMC-max m=8 constrained":         "34 90b657facd9ca932",
	"CA-Wu-F AMC-max m=8 constrained":        "25 066b6fbd0c2ed1cb",
	"ECA-Wu-F AMC-max m=8 constrained":       "29 254ee2728ea859ca",
	"FFD AMC-max m=8 constrained":            "40 02981b26b5003629",
	"WFD AMC-max m=8 constrained":            "26 30ef3a5fc5594e9b",
}
