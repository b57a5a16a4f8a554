// Package diskstore is the out-of-core storage layer: it builds
// datasets and broadcast images whose working set exceeds RAM, holding
// no more than a configured budget of records in heap at any point of
// the pipeline.
//
// Three layers compose:
//
//   - An external-sort pipeline (Sorter): bounded-memory sorted-run
//     generation spilling to temp files, plus a k-way merge that
//     streams the globally sorted record sequence back. It is generic
//     over fixed-width records.
//   - The streaming build: BuildImage streams a generated dataset
//     through the sorter into a sorted object file (the HC broadcast
//     order) and a per-frame minHC file — temporary sidecars, removed
//     when the build returns — which a StreamSource replays as the
//     exact single-channel transmitter byte stream.
//   - The wire-cycle image (WriteImage / WriteImageFile / OpenImage):
//     the exact transmitter byte stream of a broadcast, one
//     fixed-stride record per slot, with a slot-offset footer. A
//     station mmaps the image and serves PacketAt(ch, abs) as a pure
//     slice into the file — zero materialization, O(1) startup — and
//     the footer carries the catalog meta document plus the streaming
//     dataset checksum, so network clients bootstrap and verify against
//     an image-backed station exactly as against an in-memory one.
//
// Every disk-built artifact is regression-enforced bit-identical to
// its in-memory counterpart: the image matches the transmitter's
// packets on all layouts (FEC included), and the streamed dataset
// matches dataset.Uniform/Clustered.
package diskstore
