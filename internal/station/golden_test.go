package station

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

// streamDigest is the SHA-256 of one cycle of every channel of src read
// through PacketAt — each packet's channel, slot, flags, version and
// payload — followed by the directory and FEC descriptor on air at
// slot 0.
func streamDigest(src PacketSource, chanSlots []int) string {
	h := sha256.New()
	var b [14]byte
	for ch, n := range chanSlots {
		for abs := 0; abs < n; abs++ {
			p, v := src.PacketAt(ch, int64(abs))
			b[0] = p.Ch
			binary.BigEndian.PutUint32(b[1:], p.Slot)
			b[5] = p.Flags
			binary.BigEndian.PutUint32(b[6:], v)
			binary.BigEndian.PutUint32(b[10:], uint32(len(p.Payload)))
			h.Write(b[:])
			h.Write(p.Payload)
		}
	}
	dir, dv := src.DirectoryAt(0)
	desc, fv := src.(FECSource).FECDescAt(0)
	for _, s := range []struct {
		buf []byte
		v   uint32
	}{{dir, dv}, {desc, fv}} {
		binary.BigEndian.PutUint32(b[0:], uint32(len(s.buf)))
		binary.BigEndian.PutUint32(b[4:], s.v)
		h.Write(b[:8])
		h.Write(s.buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenStreams pins the packet bytes of every layout the transmitter
// serves, uncoded and under an XOR and a Reed-Solomon code where the
// layout supports coding, across packet capacities and object sizes
// that do and do not divide each other (and, with /unit, multi-packet
// index tables). Keys are layout/code/capacity/object-bytes. The
// digests were recorded from the separate single-channel and
// plan-driven multi-channel transmitters this package used to have, so
// the merged transmitter is held to their exact bytes.
var goldenStreams = map[string]string{
	"single/plain/c64/o20":          "06099a53ad1782fcf155bd9d15f61b30021b3240625e7e54b531b7f742cf9cac",
	"single/xor/c64/o20":            "ec02fa5ba0eb33857adbc87da5c8864a3ed909bf7b5ef84c6d1e9fc075aed50d",
	"single/rs/c64/o20":             "544e273044acf76b0219ccef6ea4fc7f74f1a40d8491d03115e833a950f3a975",
	"stripe2/plain/c64/o20":         "b5c9b0903b96dab0f4aed8573f1cd673924ed9d2806fb4864e0f56974ac89070",
	"stripe3s/plain/c64/o20":        "8d4c780b55e7f92bf5b51055540bddb544de43a99ae944db55e08d5166424b52",
	"split2/plain/c64/o20":          "cdd0eef3492de72b5fe4289fa762a339d6589a083dafd852b0909eaec247b367",
	"split2/xor/c64/o20":            "21bf65e8141156565b51fd3923d9bcfb140d92e3fb3e5db57e4ecd7a77c5a831",
	"split2/rs/c64/o20":             "9ae285bf54cadab14137ce0a3a0df7d3b90ab66d0506e19b3ef3b25005223a7d",
	"split4/plain/c64/o20":          "802dc52221a0a32d9f0b97a2382475c1854923f311be25454839a80bd677bc79",
	"split4/xor/c64/o20":            "00584633ea7e159cd4bac1d6feeb5ea9666398008a3af0b00568a677ec51a75e",
	"split4/rs/c64/o20":             "564c404c1bc4803b804d6f5b191108dff2822c8fad67b31f72c9fd822b3deb34",
	"shard/plain/c64/o20":           "c765a7390bb7bc8e6336acd2e19d704a8c25483f10dbea127c7a5ac2a7a0d7fb",
	"shard/xor/c64/o20":             "041379b1313c9c8faa2fb56fc99c202f62faaceadecf63bac26e89a37c93591c",
	"shard/rs/c64/o20":              "e9f4064b18f035010d7c1dcb45771a7bd9488c4c3a3161e334ca9ef31ab3c5d4",
	"single/plain/c64/o250":         "eecc6573375eecb33294f46dde9b9aeec7bcbdda043b885c4706b95d3b68ad99",
	"single/xor/c64/o250":           "92540be874b33856d4042cb813aecf7dc13c50fffd3a8723331aef34508894c6",
	"single/rs/c64/o250":            "e3641b9a90ae4c20290ee0d0d0a91c304927f3b26cf9635896e5c64833aedab8",
	"stripe2/plain/c64/o250":        "cca84760d96eaf24ddb678ef12442b4f8d842d508378cb7322d302ecf80bb551",
	"stripe3s/plain/c64/o250":       "7a0d072ad85abf85e08867b7141894e2ff708715e0e7fc9b0d452fca3a18e4bb",
	"split2/plain/c64/o250":         "051aa5ac61b1468d2dee5cb3ff5534c71e6f6ec46005b6dde771fa1f17a4f8e6",
	"split2/xor/c64/o250":           "3b363a259fbbbbb3435f3b4e926a87061b7ff5a34c7a9261d2953cc71caa1b81",
	"split2/rs/c64/o250":            "c16c5d156cf3150cde0f38e5d4f942cdfedfb9727c9e88cc573ebac917775f5c",
	"split4/plain/c64/o250":         "2cfa1b2fa2bbe3c27ede45a23a9993b9f846fbd629246d08dd5380ea9dba106a",
	"split4/xor/c64/o250":           "1467159480b2e91a1983d78330216ef567dff4bc8b77bbc3ebc59bd9c5f9f03f",
	"split4/rs/c64/o250":            "7bc761b81799fd7bdb435d9107907271fede6f13883cb40c71f22c681cf31b8a",
	"shard/plain/c64/o250":          "d74f7d34de931b3b3241b4e6dbba1ded0724fd5bf7d3dd0185bc83c2d9d0c506",
	"shard/xor/c64/o250":            "f96885863c76175ba3644f82db524db07c83fa052e75e74372202b6c130d14a2",
	"shard/rs/c64/o250":             "19fc1940ebe47cd94d44e3a976b68e590af7a76885d9018a1c9673ac60c4aaf0",
	"single/plain/c64/o300":         "ecabd8a893623d6ae486b2ba29eefd03bf2adb412515f9ee6e2400780a3f6ee8",
	"single/xor/c64/o300":           "babbcb3260fb270ad12b4a925d94dad0f9e5438f222a450b37c905a1fac0eba8",
	"single/rs/c64/o300":            "5e3e1b6564390b245bb71644d6de5ca570ed0750bc3ed4d2263f57f9f3b40984",
	"stripe2/plain/c64/o300":        "b48f2f623e79a8e63cbf9f03a99fcca6e233b1814eaceefa7985a428535de697",
	"stripe3s/plain/c64/o300":       "ec9ee2e7704180aac6a134a3863310e8bcf76a232cdced506f628b1f2d8f3715",
	"split2/plain/c64/o300":         "37d732d86153a04695dc0592663f21aa79dec440fe026cedd786c7352add60df",
	"split2/xor/c64/o300":           "acca4c39600a50fb7e9a38c3e943bc1350c001e72d7b39cb2d6063d61c407bca",
	"split2/rs/c64/o300":            "b7547c688e1046c11549836fc585d04209d31cbf7f93c165f86a0f7cd07f46c3",
	"split4/plain/c64/o300":         "f72fcd24085527c95a32d7c8bd776eb29e2a4c48db7b332d8603db2873f748bd",
	"split4/xor/c64/o300":           "5343d33b4f108a74d17f04492a7ef436f4db11d3d5fd28d7fecab310f2fcb752",
	"split4/rs/c64/o300":            "d54da566b00673d74a22d0fb83c1b16bfcec1cd45a29e3a7b90fbed4990b0856",
	"shard/plain/c64/o300":          "393a3a19ce68210a47d91e87b0a1af47919b8e42374c7769f8dbcdc5610c6458",
	"shard/xor/c64/o300":            "886f6bf9c94c7f95c18789fd88bde94d10d3b827777267b907c86ceac7e3265e",
	"shard/rs/c64/o300":             "6b017aed7d5f7630742414eed65db0e161fd60806512874181bd2c029057b2c3",
	"single/plain/c64/o1024":        "679bf6cf8ce5114963d3f8d88f2449a7096ffc32a26c3e0f8ca7924714379e1a",
	"single/xor/c64/o1024":          "c64154fdcb5f701bd4b356394e4f19bdc07d7622de6b2877fdbd04ddfa0d7fa8",
	"single/rs/c64/o1024":           "ecd1d6ba6338b3edacc18f803821b03bbfd69f35c77e9c1da0ba3621d492e2e9",
	"stripe2/plain/c64/o1024":       "17b868534244f982b01b695ecb640a32fa56b2308e471a3363105f32462b1a4c",
	"stripe3s/plain/c64/o1024":      "ee5e4c826b80b47088eefbe09d0f693ed8094a508ef96899e5c68897f1ae44ed",
	"split2/plain/c64/o1024":        "b4f2cc143a8961bff8718c4739e8dbfe6e63f3074f9c9f6e96d454dd4d5f8e53",
	"split2/xor/c64/o1024":          "99fe995ed0667e9cb324be95e6a165c506e8e6bac61b5a422c2b6cb13631db5b",
	"split2/rs/c64/o1024":           "f4d11a70004259b95e1c5d17cf714d37a66d69a143790b060584fe7a31a995fa",
	"split4/plain/c64/o1024":        "a514a4e8d796a49c0e8e458211239b2e274e0ef667fd4a0164dcca314ddf7e8a",
	"split4/xor/c64/o1024":          "4ef509d66037db566e14a93d3073fc2a0c6ac54f27f96326baf3af83f9cb6796",
	"split4/rs/c64/o1024":           "6765c76abfedc6fa56e9d2aa92a1f5cabc2da378e749e5e3d60d3b8252548092",
	"shard/plain/c64/o1024":         "654b867b6c666177354e292650ce010ec419346f801f35ef0b7cbcaae491f114",
	"shard/xor/c64/o1024":           "fe364f191282b1277985b85e2518af8460423bac2b78641beda5f99f61ed0574",
	"shard/rs/c64/o1024":            "8c45c0922a9d956e253f438fb91b5adf456a8d78e9ae92975c73d652f272f681",
	"single/plain/c100/o20":         "93390999eb28a8c30cc3b6fc21b1441432367877c6b4f7134961104d01e93059",
	"single/xor/c100/o20":           "936220afbbe044185e761c5710d1fde22dc219894f8e0f1124a90bb1953b8fc1",
	"single/rs/c100/o20":            "b598bc6dc24ed6f5b3c4e3e02e868e8f24900a348fd9e1a5cd06178544a9c1f3",
	"stripe2/plain/c100/o20":        "78d51b420dc8df06bba269f04fada235f760e672fbb3f9ec903d09657daa521f",
	"stripe3s/plain/c100/o20":       "c396a72db26a603ddc9cb1ac560136b2aea9cc64e3d19752985bc2dd25fec301",
	"split2/plain/c100/o20":         "07eac42887b8dc52700a2dad8078ba9101e2ac1d301a9d0f550db30d01fbeea3",
	"split2/xor/c100/o20":           "ac14673a42469be26be36e989d32e7ffdd9935319ec94ca7b93152a35c13f8d1",
	"split2/rs/c100/o20":            "d54edb5668dbfd71d94f7c5410efd6abde7cabaaa4cfa89196ee93a355092eb6",
	"split4/plain/c100/o20":         "d2c1f70da653ce10a1a7daddc7b26cd2cd270a3bd03860d3f04246be8ceb63d1",
	"split4/xor/c100/o20":           "075d2a0bba62a11ac342dc5b777f7f586f8fb782e6fe88f3f4f4e571f419b40c",
	"split4/rs/c100/o20":            "cbbe92c0679e7fd5f54ce41c71874d5eabbbaa923f4f1dbb25c220792c2b64a2",
	"shard/plain/c100/o20":          "f714fb8d45ffe6d5faee3cf3cfcbb69df9eb64a6b7b048d8ac1b7aa1852fa6f8",
	"shard/xor/c100/o20":            "e636c2e8c0b8b685926d2fdb27707d784bb5c321834ebedafccda017cd86d43e",
	"shard/rs/c100/o20":             "7aa40b82bf6f977b0dd256adc8890cf4cadf073468fd207a957a606ef38655b4",
	"single/plain/c100/o250":        "8a2c9adbcfa680db07f46d914c28afd6baaf1ce987244c2385241579ad0a886e",
	"single/xor/c100/o250":          "78f26e5578778ee31f50338ba4fb07865aee83f34bd625703e8f966bdeeb358a",
	"single/rs/c100/o250":           "e6f2c4d9d9c637e407657b51486861bbac4c15ad93c48265dad7505129e8072f",
	"stripe2/plain/c100/o250":       "17201e07c528be545c17a1a1b3b530e8e72978c52e2375d0d62e302ab19ce063",
	"stripe3s/plain/c100/o250":      "335736385044e46f4e08a3390df6cba457033b6220a40bc17d07315536554161",
	"split2/plain/c100/o250":        "b0c9808adaef649dc5b076634fa12bb3964596b03171813868252025ac740009",
	"split2/xor/c100/o250":          "7d20c1dcb06bf45c9a97c1327b44ddf8728b2722e600bee63dc87925c7082802",
	"split2/rs/c100/o250":           "59b6f28ab8d6d764483b55f498bae77291f880448ec68bef388a93bffae020e6",
	"split4/plain/c100/o250":        "6ba3cbf09fb7082eed0170d7f07e63bbdef7a4a703b104d3aebc187c72af40b9",
	"split4/xor/c100/o250":          "39469abfc44563a62d017ba75a29f9e95cf22f777006347322dc632249dc541c",
	"split4/rs/c100/o250":           "0dfe179aa8e40f4d5fa737de112db4639793f366b725ff9ab996968584c8d369",
	"shard/plain/c100/o250":         "e021a134bcb5997c23de1eaeb5b4913dfed1512cf08f703e8faa965571854f87",
	"shard/xor/c100/o250":           "20d59afd8202d6502a5dec601ebe1602a25f19552feadbcee55ca5642fd41f03",
	"shard/rs/c100/o250":            "18a79ef24c53576384769ab922b28056831fca085da6b8daebde6f3d5b881afb",
	"single/plain/c100/o300":        "11acf314fbb64c0e7967755c42f72bd3731295ffba776ce700f2773fdd7b7ea1",
	"single/xor/c100/o300":          "52c4eac970a608f5ddbbdadb3fc78f6f305906e1fd09836121e52b5a54266388",
	"single/rs/c100/o300":           "3e01150b2303190996916fff34f269181974fa56d1a525bfb8c1145dc9ef0060",
	"stripe2/plain/c100/o300":       "a1a636f0094b71ba4b654c9706e1da6b56fce4446b9cb951c56a9e6bb5b25c3f",
	"stripe3s/plain/c100/o300":      "d8fe42732a445994a0444b64c10d782fb31516c44336978cc6ee2dd0e58c13c4",
	"split2/plain/c100/o300":        "c22303121c40457ed3e0705c49868ca2be5344a1e9eea7dcd2fd28f04eed1197",
	"split2/xor/c100/o300":          "3bea7c7f6afb14a7066a2e3250e636cd6854b7f2a5dbbd1fc1b2b465cc95d844",
	"split2/rs/c100/o300":           "587eda329c50d3d7edbf84cc954d0cb0cd4629343faf530184b34662f5786d34",
	"split4/plain/c100/o300":        "f8b3481b0a2b6c0acf5325afbc2e5eb9a5ed63e775af616a6c41d0fee9062878",
	"split4/xor/c100/o300":          "fa305902372ae0fe6ade402fbba6143320122515fd0182b23a4622d9b98c5223",
	"split4/rs/c100/o300":           "94c2e9d0456a17814720342690bf839c8def12fbeadecbe18069548d132a5000",
	"shard/plain/c100/o300":         "ab644c41ebf48f6a4255a4519e62add44e85ea7014914064e081402ec6175fee",
	"shard/xor/c100/o300":           "1f83af7db43d4df50129a0d2d024bd625742f652e6821edf5fedb8de17d26c2b",
	"shard/rs/c100/o300":            "927455f5684fa20005bc243f9a5570d872da1e2fe4f129d0d880510f13f9b976",
	"single/plain/c100/o1024":       "a703118d810af24080364e45e58025126b6e207de1ef02470b0e5b4b67b1e428",
	"single/xor/c100/o1024":         "961fa5e09b65a711914ab63ba177d93ab7b61025c5632922488fdb74a94734db",
	"single/rs/c100/o1024":          "a7874b6cd89ab5333af8c68d0b9436add2822d2d3733581c16f59981ee6accf3",
	"stripe2/plain/c100/o1024":      "8c3d6d7413babbef108a1383b364a50617fd60f1a0efb7aa0cda3469110b0c02",
	"stripe3s/plain/c100/o1024":     "82a64214efa24578ddac3ca7260729dd9b91454f3794309fa6e2f1cd279486c9",
	"split2/plain/c100/o1024":       "97a3f08782b819c97f64006df7317c172d9a65b1d4b6dab1cf14c178f01b174b",
	"split2/xor/c100/o1024":         "eba9f9678c26b690c2c3c00c67fb5b0c7b89526554fbf0322db9c786f6c9b641",
	"split2/rs/c100/o1024":          "be7b9146ac7bda76687c29e4305be7188ce64404ff44f31be460b5150b705962",
	"split4/plain/c100/o1024":       "596acf9172226767e11e74b7f9e206300322a9af836685c168599849dbdc8f5f",
	"split4/xor/c100/o1024":         "48e06822b9a7a03060122eebe7b3d625b4b4966990cb68c08b4ae9ade715b4af",
	"split4/rs/c100/o1024":          "a16591794f2b8c54f1e8840f9d5be6c790b9e1de70703eeafd063d3c6c330881",
	"shard/plain/c100/o1024":        "a90beca023b28baaeb00b0ba541daae6fe14f74e19bb81fd72f6b5f6d75453c4",
	"shard/xor/c100/o1024":          "9a3e504ce86fcbb66f0d105b841be5a48ebc3d50a9bda525707f7fd83f04d4cf",
	"shard/rs/c100/o1024":           "c2db224056066a3ae3291a72461cffe05f6884683badf83dc28cc8d031b822dc",
	"single/plain/c32/o1024/unit":   "6b6e7b2400669215375cdac23634dfbef7ac338e956ed45a906867c8bcbd0846",
	"single/xor/c32/o1024/unit":     "9f9cf843391876af05ed20bf6ee3857747a28606611e384e4bd1c652b0bd7332",
	"single/rs/c32/o1024/unit":      "99ffbe2028edbcf20df6d487a3794da2af6a7ae61c9b64d8ada0fa089b2d999e",
	"stripe2/plain/c32/o1024/unit":  "e82f69917bc23498d58d517996d5c74846eb9c2ca7099194079776b170f6c277",
	"stripe3s/plain/c32/o1024/unit": "dd2ce6e64868df7dc41871d777b6afd6bea3fa627a4e2fee9f1d2762a45d12b5",
	"split2/plain/c32/o1024/unit":   "2a93b0b6703b548c78d6278372e83eeb61bd66446d95d71cb4b69bbd6bffd1e5",
	"split2/xor/c32/o1024/unit":     "1a6f54cad1de57b12d19a1d5e44cbf7d608c029947e25bba9c0d819a9455d1d8",
	"split2/rs/c32/o1024/unit":      "403f78b3e4dee2494320494c06e2c88ef431f41d9fdfaa22b031fbfff28d9077",
	"split4/plain/c32/o1024/unit":   "ef7de6865c3498a836e1b1bad2afcef1fe5ff597ea413acf9134ef91fb1af543",
	"split4/xor/c32/o1024/unit":     "2434374a3deab513e4f02d068cc35c74d3358eda013bcdd3d3408940a45ef5db",
	"split4/rs/c32/o1024/unit":      "8505658076cd1851c1ce5c1a6f7ab900c801083ed390987bd5217d15b5d126d4",
	"shard/plain/c32/o1024/unit":    "42f14ff7969be91b733185f893cb0ac429ee72df488068788d5349122da55090",
	"shard/xor/c32/o1024/unit":      "7714ef10a316570cbd6a3c8ff75a5da149d661c40dd4d3f684ae44c2c9f5667b",
	"shard/rs/c32/o1024/unit":       "9fa18f6a70214acc2fbd36f828bef38a7d46e2657366ca25521bd7f762b0e09c",
}

// goldenLayout builds the named layout of the golden sweep over x.
func goldenLayout(t *testing.T, x *dsi.Index, name string) *dsi.Layout {
	t.Helper()
	var mc dsi.MultiConfig
	switch name {
	case "single":
		return x.SingleLayout()
	case "stripe2":
		mc = dsi.MultiConfig{Channels: 2, Scheduler: dsi.SchedStripe}
	case "stripe3s":
		mc = dsi.MultiConfig{Channels: 3, Scheduler: dsi.SchedStripe, SwitchSlots: 2}
	case "split2":
		mc = dsi.MultiConfig{Channels: 2, Scheduler: dsi.SchedSplit, SwitchSlots: 1}
	case "split4":
		mc = dsi.MultiConfig{Channels: 4, Scheduler: dsi.SchedSplit, SwitchSlots: 1}
	case "shard":
		mc = dsi.MultiConfig{Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2,
			ShardBounds: []int{0, x.NF * 2 / 9, x.NF * 5 / 9, x.NF}}
	}
	lay, err := dsi.NewLayout(x, mc)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// goldenCode is the named erasure code, its object groups clipped to
// the object's packet count.
func goldenCode(name string, objPackets int) wire.FECConfig {
	og := min(2, objPackets)
	switch name {
	case "xor":
		return wire.FECConfig{Table: wire.FECCode{Groups: 1, Parity: 1}, Object: wire.FECCode{Groups: og, Parity: 1}}
	case "rs":
		return wire.FECConfig{Table: wire.FECCode{Groups: 1, Parity: 2}, Object: wire.FECCode{Groups: og, Parity: 3}}
	}
	return wire.FECConfig{}
}

// TestGoldenStreamDigests: every transmitter configuration emits
// exactly its pinned bytes. The single-channel layout is checked
// through both NewTransmitterFEC and NewMultiTransmitterFEC over
// x.SingleLayout() — the call dsistation makes for -sched single —
// which must be the same stream.
func TestGoldenStreamDigests(t *testing.T) {
	ds := dataset.Uniform(240, 7, 53)
	type sizing struct {
		capacity, objBytes int
		sizing             dsi.Sizing
		tag                string
	}
	var sizings []sizing
	for _, capacity := range []int{64, 100} {
		for _, ob := range []int{20, 250, 300, 1024} {
			sizings = append(sizings, sizing{capacity, ob, dsi.SizingAuto, ""})
		}
	}
	sizings = append(sizings, sizing{32, 1024, dsi.SizingUnitFactor, "/unit"})

	checked := 0
	for _, z := range sizings {
		for _, lname := range []string{"single", "stripe2", "stripe3s", "split2", "split4", "shard"} {
			x, err := dsi.Build(ds, dsi.Config{Capacity: z.capacity, ObjectBytes: z.objBytes,
				Sizing: z.sizing, ReserveMCPtr: lname != "single"})
			if err != nil {
				t.Fatal(err)
			}
			lay := goldenLayout(t, x, lname)
			for _, code := range []string{"plain", "xor", "rs"} {
				if code != "plain" && lay.Sched == dsi.SchedStripe && lay.Channels() > 1 {
					continue // stripe channels can wrap a unit across the seam: uncodable
				}
				name := fmt.Sprintf("%s/%s/c%d/o%d%s", lname, code, z.capacity, z.objBytes, z.tag)
				want, ok := goldenStreams[name]
				if !ok {
					t.Fatalf("%s: no golden digest", name)
				}
				fc := goldenCode(code, x.ObjPackets)
				var txs []*Transmitter
				tx, err := NewMultiTransmitterFEC(lay, fc)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				txs = append(txs, tx)
				if lname == "single" {
					if tx, err = NewTransmitterFEC(x, fc); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					txs = append(txs, tx)
				}
				for _, tx := range txs {
					slots := make([]int, lay.Channels())
					for ch := range slots {
						slots[ch] = tx.ChanSlots(ch)
					}
					if got := streamDigest(tx, slots); got != want {
						t.Errorf("%s: stream digest %s, want %s", name, got, want)
					}
				}
				checked++
			}
		}
	}
	if checked != len(goldenStreams) {
		t.Fatalf("checked %d configurations, %d pinned", checked, len(goldenStreams))
	}
}
