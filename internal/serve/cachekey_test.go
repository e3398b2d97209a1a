package serve

import (
	"encoding/hex"
	"testing"

	"hybridpde/internal/cache"
)

// TestCacheKeyBytesPinned pins the exact bytes of SolveKey,
// solveCacheBucket and ShapeKey for one normalized request of each kind,
// analog on and off and both orders where the kind takes them. Ring
// ownership (a shape key picks a backend), gateway dedup and every cached
// entry are addressed by these digests, so a change to the key encoding
// must show up here as a deliberate re-record, never as a silent remap of
// a running fleet's caches.
func TestCacheKeyBytesPinned(t *testing.T) {
	cases := []struct {
		req                  Request
		solve, bucket, shape string
	}{
		{Request{Problem: KindBurgers2D, N: 8, Seed: 3, Re: 1.5, Bound: 0.4},
			"e34975f09688d50e03ebea9a52ce94109df78f1bd43051be7144d3d2f3754db3",
			"4d342253432029ae9f1a04381e64eaf533cfba65cb776927ece8a917fb12f435",
			"de0127f273a5fa735aa91bff5235b32b662a64c4e34afa9f64832e9d2e7bf29e"},
		{Request{Problem: KindBurgers2D, N: 6, Order: 4, Seed: 11, Backend: "gpu", Analog: true, AnalogVars: 36},
			"f0754ca25a2aef6d1c4d8170e06242d81d90e18df38ea9c2449a58567c0bf928",
			"61563efba5213bd063a0e8d17701d88444d4b184cdd0489fbda7f28c08d040c3",
			"253bbd7482b8aabc0728cf4c241d24ecc6ec15144289a7b2393d4aa9f321e3e9"},
		{Request{Problem: KindBurgersSteady, N: 5, Seed: 42},
			"ae71dcec68c774eb063a928e13bf5119809747032136cb8c1c5a6db2a46c9fe7",
			"3ddf74f9524610baf8032762d9c70aa4bc2635e1da242b5a7a475839df81ae00",
			"ee790c5c25d988d4fc4c337f0bd370c17ca68e4a20454db1dce72103e3ad38f0"},
		{Request{Problem: KindBurgersSteady, N: 4, Order: 4, Seed: 7, Re: 2, Analog: true},
			"a6f26293c18b22995675d0810d45bb9e8b9a973262606c76ef554efb9e550ac0",
			"354dda5ea6bddba5a88ce9ae704068a4ffd237d9a332e5ae100bff3861dccac7",
			"db8c62627cc6b02f72a05915ac6fe9d45b59537a15005f9f47e1c03a4c1357e3"},
		{Request{Problem: KindBurgers1D, Seed: 5, Bound: 1.25},
			"2698a3f14f7e97fd3fb4a1d4996ae5a0262efdb6397563e6b38101374c664f13",
			"d74947b132baf1a9f40e5bfb07754fcda096065b01225d6f1345e3a1061cc734",
			"40006194502d432fe6e390186acface1f29b10b6bf4ce9c93007ce4d2b89e8c1"},
		{Request{Problem: KindBurgers1D, N: 32, Seed: 9, Backend: "analog-la", Analog: true},
			"8d0657ca8d431f830185defe42b308964360e03f65600fd1cad14446c8f84c44",
			"7f3b23ba559906a6843b343d245bf02cd2094652e6b46143c4fcf5df4920930a",
			"18c8e6db24a74924a7261dd88cb158550f26b88bf15232442b8d74cbe65b98e4"},
	}
	var kb cache.KeyBuilder
	for _, c := range cases {
		req := c.req
		if err := Normalize(&req, 0); err != nil {
			t.Fatalf("%+v: %v", c.req, err)
		}
		solve := SolveKey(&req, &kb)
		bucket := solveCacheBucket(&req, &kb)
		shape := ShapeKey(&req, &kb)
		for _, k := range []struct {
			name string
			got  cache.Key
			want string
		}{{"SolveKey", solve, c.solve}, {"solveCacheBucket", bucket, c.bucket}, {"ShapeKey", shape, c.shape}} {
			if got := hex.EncodeToString(k.got[:]); got != k.want {
				t.Errorf("%s/n=%d/order=%d/analog=%v: %s = %s, want %s", req.Problem, req.N, req.Order, req.Analog, k.name, got, k.want)
			}
		}
	}
}
