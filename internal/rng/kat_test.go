package rng

import "testing"

// xoshiroKAT pins the generator's output: the first 64 values of New(seed)
// and the state after them, for three seeds. Every seeded workload,
// experiment table and golden file in the repository depends on this exact
// sequence, so any rewrite of Uint64 or New must reproduce it.
var xoshiroKAT = []struct {
	seed  uint64
	out   [64]uint64
	final [4]uint64
}{
	{
		seed: 0x0,
		out: [64]uint64{
			0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c,
			0xbba5ad4a1f842e59, 0xffef8375d9ebcaca, 0x6c160deed2f54c98, 0x8920ad648fc30a3f,
			0xdb032c0ba7539731, 0xeb3a475a3e749a3d, 0x1d42993fa43f2a54, 0x11361bf526a14bb5,
			0x1b4f07a5ab3d8e9c, 0xa7a3257f6986db7f, 0x7efdaa95605dfc9c, 0x4bde97c0a78eaab8,
			0xb455eac43518666c, 0x304dbf6c06730690, 0x8cbe7776598a798c, 0x0ecbdf7ffcd727e5,
			0x4ff52157533fe270, 0x7e61475b87242f2e, 0x52558c68a9316824, 0xa0bd00c592471176,
			0xfc9b83a3a0c63b9e, 0x4d786c0f0a8b88ef, 0xa52473c4f62f2338, 0xe9dc0037db25d6d9,
			0xfce5eba9d25094c3, 0xe3dbe61ee2d64b51, 0x23f62e432b1272df, 0x4ac7443a342c4913,
			0xc31cf1a9658c1991, 0x290c97ffce918b1d, 0xf54455e02e90636a, 0xf57745758bb8f33f,
			0xe5e1b685122823d9, 0x2c16cde0fd8097ec, 0x3cdebc44a5bc1936, 0x6833bafa723c2dbd,
			0xb6fa6c4ba1d3d39e, 0xe5b932b656c2edc3, 0x09cf0b6121615c9f, 0x214e25d57fc636d5,
			0xcf3d1721806e2537, 0xcf796fc6335ddc02, 0x353c8b86489b0322, 0xfc4865822547b6aa,
			0xe8c93d84ee8b3f8c, 0xd1b42120a323f2d6, 0xa73a11d247ff36b2, 0xae42236958bba58c,
			0xb622679e2affcf3a, 0xcc3bab0060f645f4, 0x2e01e45c78f0daa7, 0x08566c5f16be948a,
			0x73beac2187e1f640, 0x8e903d752c1b5d6e, 0x5b34681094d7511d, 0x70ebad382047f5c1,
			0xeae5ca1448d4e9cc, 0x3d2d62775b631bd5, 0x8cb72ebc5b4f7dc3, 0x099c2939ea690a80,
		},
		final: [4]uint64{0x56d006a369024893, 0x47f45905f5c93ee1, 0xcda233cec15adc68, 0x5926cc8782c86a29},
	},
	{
		seed: 0x2a,
		out: [64]uint64{
			0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1,
			0xfde6dc7fe2ec5e64, 0xc50da53101795238, 0xb82154855a65ddb2, 0xd99a2743ebe60087,
			0xc2e96e726e97647e, 0x9556615f775fbc3d, 0xaeb53b340c103971, 0x4a69db9873af8965,
			0xcd0feda93006c6b6, 0x52480865a4b42742, 0xb60dec3bf2d887cd, 0xe0b55a68b96677fa,
			0x9de4159eda9cef95, 0xd9f4b354ec3844d4, 0xb5215f43ed431a77, 0xb5344cbe421f4f3a,
			0x17c5ad539dbb98d9, 0x2dd4705aaba5de2b, 0x6faa904a94c529bd, 0x9a1da25458817417,
			0x5061938da99c7af0, 0x7d3babc0d1e23440, 0x6624536f5ad584d4, 0xca03e50015c044b8,
			0xa293144f4f3bd3fa, 0x3b38bd77133b0bda, 0x6a0da881492d3bfd, 0x9f6b51d30d502b3a,
			0xdcf83ab9a2b09168, 0xf1dbbb3e7caf8512, 0xd06fa2c515268d8a, 0xbf3b601241d6460c,
			0xc8dac160a4cf65b7, 0x0b79e57de69e68a1, 0x77ffe08aaffca9f2, 0xf8dae1deeb08090b,
			0x896c10e1f50e7c45, 0xb35f3c33364236ad, 0xcdb713a2484aba0d, 0xd17557ee842fc622,
			0xe5fa6d9f51a65be7, 0x202a8f768818eb71, 0x90a2b65696578132, 0x8de344cfe2c7f797,
			0xdb73c7b4d941a5a9, 0xd3e1718bf28e10a9, 0x850b3263a0953dbb, 0x51466fd43f32a0ec,
			0x3130eb9b89d02158, 0xa4d4d91162b2d044, 0x0752374ea697b934, 0x5bb7058b670da327,
			0x91be7d3d72cec5d7, 0xc687f6037de59e9c, 0x81dbd737ae287209, 0x9eb080fc911ead60,
			0xf3759893228a56ec, 0xf18b1a75d5c9a1ab, 0x3818ca12dc164711, 0xc990d448a6cc309e,
		},
		final: [4]uint64{0xc86293d1bd747d90, 0xc128a36191fceff7, 0xfc0ab8286004d961, 0xcd254a8abf0077a5},
	},
	{
		seed: 0xdeadbeefcafef00d,
		out: [64]uint64{
			0x9e32cfb5bb93eebb, 0x16006bd9d4ac0014, 0x8ada5d6d34b6538e, 0x7c327ca32346a238,
			0xc43a6d6a3492ced2, 0xdb639ecb036a9c04, 0xc5a4b301c52fcfa4, 0xbcc5e0efaa8ded95,
			0x8a903b49d88ef4f7, 0xc6043008a620aa78, 0x8a82731f1fe378b7, 0xd4c879a2e28ba874,
			0x024b67ade38a6aac, 0x2f3a0ef285cd43d0, 0xd6e9ef65cc351aac, 0xfdb9c0427eaa514b,
			0x6c75929900007125, 0x81032a3925a3146e, 0x55152b942c98c9e3, 0x41657dc816cdf16e,
			0x71c4f821609ffa06, 0xc813ad1a90b437e5, 0x664da635313663b0, 0xd7c75b0b8dcdb101,
			0xec82dabc2d97f425, 0x445d1f4077c35cc8, 0xf6e307b2e4c186ef, 0xa3f38bd175605065,
			0xafd71815ece592ff, 0x63448334dcc0333d, 0x98a0ac2784de17a5, 0x3a5df396edc947cd,
			0x6f225ec260abeff0, 0x7df320e645b5e39c, 0xa19bc484c297327d, 0xcc4237d4bb980fbe,
			0xe7f8deb0a8c269dd, 0xa6129a60fed75661, 0xfa868afd6b88e5f7, 0x2047c6bb502cf0b1,
			0x7ef9da8814552b3a, 0x4ce0529f5996b6fc, 0x4e2bac02ccd3df18, 0xe7d3eee79f4423dc,
			0x4af38598446eaf9e, 0x737bb4f366f90bd7, 0x1f9969714b8c0b33, 0x1be54ae35b9d293d,
			0x1e96850093066411, 0xc78e29cc9229919e, 0xc7a5b6431ff81162, 0x36749678a8f2498d,
			0xc0809c220039ee6f, 0xfcd7724ce7386838, 0xcb542d7ef3ccdc6c, 0xe5eb4b0262cf4541,
			0xa1270417d2a15d31, 0xa6b3853b7676fae3, 0x05330bd0e103a1f0, 0x05c8144f6f0aefd7,
			0x97ff2de4de485e2d, 0x9dea9178ae0977bb, 0xd70edc00711e15c2, 0xe89bc63abb961d3f,
		},
		final: [4]uint64{0xd8fe7493d3d04681, 0xc200ae2f2b45a0f8, 0xa2407a7e3098c79a, 0x9f7629aea07e004e},
	},
}

func TestXoshiroKnownAnswers(t *testing.T) {
	for _, tc := range xoshiroKAT {
		x := New(tc.seed)
		for i, want := range tc.out {
			if got := x.Uint64(); got != want {
				t.Fatalf("seed %#x: output %d = %#016x, want %#016x", tc.seed, i, got, want)
			}
		}
		if got := x.State(); got != tc.final {
			t.Fatalf("seed %#x: state after 64 outputs = %#x, want %#x", tc.seed, got, tc.final)
		}
	}
}

// uint64nKAT pins Uint64n: the first 16 draws of New(11) for each bound
// and the state after them. AsyncSim's delivery jitter draws through it
// (Int63n), so a rewrite, Lemire's multiply-shift method for one, must
// not change a draw or the number of Uint64 outputs a draw consumes. The
// bound 2^63+1 rejects almost half the outputs.
var uint64nKAT = []struct {
	n     uint64
	out   [16]uint64
	final [4]uint64
}{
	{n: 5, out: [16]uint64{0, 1, 4, 0, 0, 0, 2, 0, 0, 1, 4, 4, 4, 4, 4, 2},
		final: [4]uint64{0x5f48128ced07e71f, 0xe82dc4fe66f51045, 0x0008f7a0f4d7c188, 0x7045eedc59aab206}},
	{n: 7, out: [16]uint64{0, 5, 2, 1, 1, 3, 2, 4, 1, 0, 2, 5, 3, 6, 2, 5},
		final: [4]uint64{0x5f48128ced07e71f, 0xe82dc4fe66f51045, 0x0008f7a0f4d7c188, 0x7045eedc59aab206}},
	{n: 1 << 10, out: [16]uint64{991, 129, 173, 568, 598, 399, 699, 793, 473, 903, 483, 828, 849, 534, 128, 605},
		final: [4]uint64{0x5f48128ced07e71f, 0xe82dc4fe66f51045, 0x0008f7a0f4d7c188, 0x7045eedc59aab206}},
	{n: 1<<63 + 1, out: [16]uint64{4118682332196087775, 1609190652402573441, 4524261822856303789, 8186203469158895160,
		1572621373277208150, 5657094326528388495, 4226375597405381511, 1170811111865358819,
		6249991440498483004, 1382952951901082134, 6912044330007054464, 418935974268900068,
		1691383327343343514, 3665620057837974441, 3375745111433617071, 5309939619586149826},
		final: [4]uint64{0x9fb57fd970f8b417, 0xe3a497e81a239248, 0xd2f29ef1cbd9b630, 0xadf41c7a3ffa9526}},
}

func TestUint64nKnownAnswers(t *testing.T) {
	for _, tc := range uint64nKAT {
		x := New(11)
		for i, want := range tc.out {
			if got := x.Uint64n(tc.n); got != want {
				t.Fatalf("n %#x: draw %d = %d, want %d", tc.n, i, got, want)
			}
		}
		if got := x.State(); got != tc.final {
			t.Fatalf("n %#x: state after 16 draws = %#x, want %#x", tc.n, got, tc.final)
		}
	}
}
