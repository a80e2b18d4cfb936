package restore_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/pigmix"
)

// TestNoPinRecordOutlivesQueries: every pin a rewrite takes at match
// time is released when its query finishes — including the pin on a
// refresh candidate that a valid match later beats — so after a store,
// an append, refreshing requeries and a warm requery no pin record is
// left in the locks namespace.
func TestNoPinRecordOutlivesQueries(t *testing.T) {
	sys := netSystem(t, reuseOpts(), pigmix.NetTrafficDays)
	runNet(t, sys, "N1")
	if _, err := pigmix.AppendNetTrafficDay(sys.FS(), netRows, netSeed); err != nil {
		t.Fatal(err)
	}
	// N1's projection with another aggregate brings N1's stored
	// projection prefix up to date but not its aggregate. N1's next
	// probe then meets the stale, mergeable aggregate first — a refresh
	// candidate — and the valid prefix after it, which wins.
	other := fmt.Sprintf(`A = load '%s' as (%s);
B = foreach A generate host, bytes;
G = group B by host;
S = foreach G generate group, MAX(B.bytes) as top;
T = group S all;
U = foreach T generate MAX(S.top);
store U into 'out/top';
`, pigmix.PathNetTraffic, pigmix.NetTrafficSchema)
	if _, err := sys.ExecuteContext(context.Background(), other, restore.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	runNet(t, sys, "N1")
	runNet(t, sys, "N1")
	if st := sys.StorageStats(); st.Leases.Granted == 0 {
		t.Fatal("no lease taken; test premise broken")
	}
	locks := core.NamespacePath("", "locks")
	for _, ds := range sys.FS().Datasets(locks) {
		if strings.HasPrefix(ds, locks+"/pin.") {
			t.Errorf("pin record %s outlived its query", ds)
		}
	}
}
