package engine

import (
	"strings"
	"testing"

	"citusgo/internal/ssi"
)

func setupSSIBank(t *testing.T) (*Engine, *Session, *Session) {
	t.Helper()
	e := New(Config{Name: "ssi-test", DeadlockInterval: -1})
	t.Cleanup(e.Close)
	boot := e.NewSession()
	mustExec(t, boot, "CREATE TABLE accounts (id int PRIMARY KEY, balance int)")
	mustExec(t, boot, "INSERT INTO accounts VALUES (1, 100), (2, 100)")
	s1, s2 := e.NewSession(), e.NewSession()
	return e, s1, s2
}

// runWriteSkew drives the deterministic bank write-skew interleaving: both
// sessions read both accounts, then each withdraws from a different one.
// Returns the error from the second COMMIT (nil = anomaly committed).
func runWriteSkew(t *testing.T, s1, s2 *Session) error {
	t.Helper()
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "SELECT balance FROM accounts WHERE id = 1 OR id = 2")
	mustExec(t, s2, "SELECT balance FROM accounts WHERE id = 1 OR id = 2")
	if _, err := s1.Exec("UPDATE accounts SET balance = balance - 150 WHERE id = 1"); err != nil {
		_, _ = s2.Exec("ROLLBACK")
		return err
	}
	if _, err := s2.Exec("UPDATE accounts SET balance = balance - 150 WHERE id = 2"); err != nil {
		mustExec(t, s1, "COMMIT")
		_, _ = s2.Exec("ROLLBACK")
		return err
	}
	mustExec(t, s1, "COMMIT")
	_, err := s2.Exec("COMMIT")
	if err != nil {
		_, _ = s2.Exec("ROLLBACK")
	}
	return err
}

// TestSSIAbortsWriteSkew: under SERIALIZABLE the second committer of a
// write-skew pair gets a retryable serialization failure.
func TestSSIAbortsWriteSkew(t *testing.T) {
	_, s1, s2 := setupSSIBank(t)
	mustExec(t, s1, "SET transaction_isolation = 'serializable'")
	mustExec(t, s2, "SET transaction_isolation = 'serializable'")
	err := runWriteSkew(t, s1, s2)
	if err == nil {
		t.Fatal("write-skew committed under SERIALIZABLE")
	}
	if !ssi.IsSerializationFailure(err) && !strings.Contains(err.Error(), "could not serialize") {
		t.Fatalf("want serialization failure, got: %v", err)
	}
	// The winner's effect must be durable, the loser's rolled back: total
	// withdrawal is exactly 150.
	s := s1.Eng.NewSession()
	res := mustExec(t, s, "SELECT sum(balance) FROM accounts")
	if got := res.Rows[0][0]; got != int64(50) {
		t.Fatalf("sum(balance) = %v, want 50 (one withdrawal)", got)
	}
}

// TestSIAllowsWriteSkew is the control: the same interleaving commits under
// plain snapshot isolation, leaving the invariant violated. This is the
// anomaly SSI exists to prevent.
func TestSIAllowsWriteSkew(t *testing.T) {
	_, s1, s2 := setupSSIBank(t)
	if err := runWriteSkew(t, s1, s2); err != nil {
		t.Fatalf("write-skew should commit under SI, got: %v", err)
	}
	s := s1.Eng.NewSession()
	res := mustExec(t, s, "SELECT sum(balance) FROM accounts")
	if got := res.Rows[0][0]; got != int64(-100) {
		t.Fatalf("sum(balance) = %v, want -100 (both withdrawals, anomaly)", got)
	}
}

// TestSSIDisabledDegradesToSI: the NoSSI switch turns SERIALIZABLE into
// plain SI (ablation A7's off-arm).
func TestSSIDisabledDegradesToSI(t *testing.T) {
	e, s1, s2 := setupSSIBank(t)
	e.SetFeatures(Features{NoSSI: true})
	mustExec(t, s1, "SET transaction_isolation = 'serializable'")
	mustExec(t, s2, "SET transaction_isolation = 'serializable'")
	if err := runWriteSkew(t, s1, s2); err != nil {
		t.Fatalf("with SSI disabled the anomaly must commit, got: %v", err)
	}
}

// TestSSIPhantomProtection: a serializable txn whose index search found no
// row still conflicts with a concurrent insert producing that key.
func TestSSIPhantomProtection(t *testing.T) {
	e := New(Config{Name: "ssi-phantom", DeadlockInterval: -1})
	t.Cleanup(e.Close)
	boot := e.NewSession()
	mustExec(t, boot, "CREATE TABLE oncall (id int PRIMARY KEY, doctor text)")
	mustExec(t, boot, "INSERT INTO oncall VALUES (1, 'alice')")

	s1, s2 := e.NewSession(), e.NewSession()
	mustExec(t, s1, "SET transaction_isolation = 'serializable'")
	mustExec(t, s2, "SET transaction_isolation = 'serializable'")
	// Both check nobody holds slot 2, then both try to take a slot the
	// other's check depended on.
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "SELECT doctor FROM oncall WHERE id = 2")
	mustExec(t, s2, "SELECT doctor FROM oncall WHERE id = 3")
	mustExec(t, s1, "INSERT INTO oncall VALUES (3, 'bob')")
	err2 := func() error {
		if _, err := s2.Exec("INSERT INTO oncall VALUES (2, 'carol')"); err != nil {
			return err
		}
		mustExec(t, s1, "COMMIT")
		_, err := s2.Exec("COMMIT")
		return err
	}()
	if err2 == nil {
		t.Fatal("phantom write-skew committed under SERIALIZABLE")
	}
	if !strings.Contains(err2.Error(), "could not serialize") {
		t.Fatalf("want serialization failure, got: %v", err2)
	}
}

// TestSSIReadOnlyTxnUnaffected: two serializable read-only transactions
// never conflict.
func TestSSIReadOnlyTxnUnaffected(t *testing.T) {
	_, s1, s2 := setupSSIBank(t)
	mustExec(t, s1, "SET transaction_isolation = 'serializable'")
	mustExec(t, s2, "SET transaction_isolation = 'serializable'")
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "SELECT sum(balance) FROM accounts")
	mustExec(t, s2, "SELECT sum(balance) FROM accounts")
	mustExec(t, s1, "COMMIT")
	mustExec(t, s2, "COMMIT")
}

// TestSSIStateDrains: after all transactions finish, no SSI state lingers.
func TestSSIStateDrains(t *testing.T) {
	e, s1, s2 := setupSSIBank(t)
	mustExec(t, s1, "SET transaction_isolation = 'serializable'")
	mustExec(t, s2, "SET transaction_isolation = 'serializable'")
	_ = runWriteSkew(t, s1, s2)
	// One more serializable txn begins and ends after everything committed,
	// forcing the retention GC.
	s3 := e.NewSession()
	mustExec(t, s3, "SET transaction_isolation = 'serializable'")
	mustExec(t, s3, "SELECT count(*) FROM accounts")
	if txns, locks := e.SSI.Stats(); txns != 0 || locks != 0 {
		t.Fatalf("SSI state must drain: txns=%d locks=%d", txns, locks)
	}
}
