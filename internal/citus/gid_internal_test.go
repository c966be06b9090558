package citus

import (
	"strings"
	"testing"
)

// TestGIDNamesItsDistributedTransaction: a 2PC gid carries its coordinator's
// prefix and the distributed transaction id, which the recovery daemon reads
// back to ask whether that transaction is still running, in a name short
// enough for the logs that hold it.
func TestGIDNamesItsDistributedTransaction(t *testing.T) {
	for _, distID := range []string{"1:1760000000123456789:42", "12:1:0", "3:18446744073709551615:18446744073709551615"} {
		node := distID[:strings.IndexByte(distID, ':')]
		for _, i := range []int{0, 7, 31} {
			gid := gidFor(distID, i)
			if !strings.HasPrefix(gid, "citus_"+node+"_") {
				t.Fatalf("gid %q of %s misses its coordinator's prefix", gid, distID)
			}
			if got, ok := gidDistID(gid); !ok || got != distID {
				t.Fatalf("gid %q reads back as %q (%v), want %s", gid, got, ok, distID)
			}
		}
	}
	if gid := gidFor("1:1760000000123456789:42", 0); len(gid) > 32 {
		t.Fatalf("gid %q is %d bytes", gid, len(gid))
	}
	// a gid of another shape, such as a hand-made one, names no transaction
	for _, gid := range []string{"citus_1_777_0", "citus_1_x!_1_0", "other"} {
		if got, ok := gidDistID(gid); ok {
			t.Fatalf("gid %q read as distributed transaction %q", gid, got)
		}
	}
}
