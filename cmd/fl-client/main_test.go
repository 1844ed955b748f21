package main

import (
	"crypto/x509"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mixnn/internal/enclave"
)

func writeBundle(t *testing.T, authorityDER []byte, measurement string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trust.json")
	raw, err := json.Marshal(enclave.TrustBundle{AuthorityPubDER: authorityDER, MeasurementHex: measurement})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadTrustRoundTrip(t *testing.T) {
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	encl, err := enclave.New(enclave.Config{}, platform)
	if err != nil {
		t.Fatal(err)
	}
	der, err := x509.MarshalPKIXPublicKey(platform.AttestationPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	meas := encl.Measurement()
	path := writeBundle(t, der, hex.EncodeToString(meas[:]))

	pub, gotMeas, err := loadTrust(path)
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Equal(platform.AttestationPublicKey()) {
		t.Fatal("authority key mangled")
	}
	if gotMeas != meas {
		t.Fatal("measurement mangled")
	}
}

func TestLoadTrustRejects(t *testing.T) {
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	der, err := x509.MarshalPKIXPublicKey(platform.AttestationPublicKey())
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name string
		path string
	}{
		{"missing file", filepath.Join(t.TempDir(), "nope.json")},
		{"bad measurement", writeBundle(t, der, "zz")},
		{"bad key", writeBundle(t, []byte("junk"), "00")},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := loadTrust(tt.path); err == nil {
				t.Fatal("no error")
			}
		})
	}

	t.Run("not json", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "trust.json")
		if err := os.WriteFile(path, []byte("{broken"), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadTrust(path); err == nil {
			t.Fatal("no error")
		}
	})
}
