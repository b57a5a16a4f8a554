package station

import (
	"fmt"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
)

func buildLayout(t *testing.T, cfg dsi.Config, mc dsi.MultiConfig) *dsi.Layout {
	t.Helper()
	ds := dataset.Uniform(150, 6, 41)
	x, err := dsi.Build(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := dsi.NewLayout(x, mc)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// TestMultiStreamIsSelfDescribing: for every scheduler and channel
// count, one cycle of raw per-channel packets must reconstruct the
// exact broadcast metadata — every frame's minimum HC value, its table
// pointers (channel ids included), and every object header.
func TestMultiStreamIsSelfDescribing(t *testing.T) {
	for _, mc := range []dsi.MultiConfig{
		{Channels: 1},
		{Channels: 2, Scheduler: dsi.SchedStripe},
		{Channels: 3, Scheduler: dsi.SchedStripe},
		{Channels: 2, Scheduler: dsi.SchedSplit},
		{Channels: 4, Scheduler: dsi.SchedSplit},
	} {
		t.Run(fmt.Sprintf("%v-x%d", mc.Scheduler, mc.Channels), func(t *testing.T) {
			lay := buildLayout(t, dsi.Config{Segments: 2}, mc)
			tx, err := NewMultiTransmitter(lay)
			if err != nil {
				t.Fatal(err)
			}
			checkTransmitter(t, tx)
		})
	}
}
