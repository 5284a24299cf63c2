package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Tenant IDs are client-chosen strings, so they cannot be used as
// directory names verbatim: "..", "a/b" or a 300-character ID would
// escape or break the data directory. EncodeTenantID maps any ID to a
// safe, reversible file name: ASCII letters, digits, '-' and '_' pass
// through, every other byte (including '.', '/' and '%') becomes %XX.

const hexDigits = "0123456789ABCDEF"

// EncodeTenantID returns the directory name for a tenant ID.
func EncodeTenantID(id string) string {
	var b strings.Builder
	b.Grow(len(id))
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('%')
			b.WriteByte(hexDigits[c>>4])
			b.WriteByte(hexDigits[c&0xf])
		}
	}
	return b.String()
}

// DecodeTenantID reverses EncodeTenantID. It refuses every name
// EncodeTenantID never writes ("%61b", "a.b"), so each tenant ID has
// exactly one directory: an alias would recover as the tenant while its
// removal deleted the canonical name.
func DecodeTenantID(name string) (string, error) {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '%' {
			if i+2 >= len(name) {
				return "", fmt.Errorf("journal: bad tenant directory name %q", name)
			}
			hi, lo := unhex(name[i+1]), unhex(name[i+2])
			if hi < 0 || lo < 0 {
				return "", fmt.Errorf("journal: bad tenant directory name %q", name)
			}
			b.WriteByte(byte(hi<<4 | lo))
			i += 2
			continue
		}
		b.WriteByte(c)
	}
	if id := b.String(); EncodeTenantID(id) == name {
		return id, nil
	}
	return "", fmt.Errorf("journal: bad tenant directory name %q", name)
}

func unhex(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	default:
		return -1
	}
}

// Tenant pairs a decoded tenant ID with its journal directory.
type Tenant struct {
	ID  string
	Dir string
}

// removingSuffix marks a tenant directory scheduled for deletion. Encoded
// tenant names never contain '.', so a tombstone can never collide with a
// live tenant. The rename to the tombstone name is the atomic point of a
// removal; a crash mid-delete leaves only a tombstone, which recovery
// sweeps, never a half-removed live tenant.
const removingSuffix = ".removing"

// RemoveTenantDir deletes a tenant's journal directory atomically with
// respect to crashes: the directory is first renamed to a tombstone (the
// commit point), then deleted. A leftover tombstone is finished off by
// SweepRemoved at the next recovery.
func RemoveTenantDir(dir string) error {
	tomb := dir + removingSuffix
	if err := os.Rename(dir, tomb); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.RemoveAll(tomb); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// SweepRemoved deletes tombstones of interrupted removals under dataDir.
func SweepRemoved(dataDir string) error {
	entries, err := os.ReadDir(dataDir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasSuffix(e.Name(), removingSuffix) {
			if err := os.RemoveAll(filepath.Join(dataDir, e.Name())); err != nil {
				return fmt.Errorf("journal: %w", err)
			}
		}
	}
	return nil
}

// ListTenants enumerates the tenant journals under dataDir in sorted ID
// order. A missing dataDir is an empty listing, not an error (the first
// boot has nothing to recover). Any subdirectory whose name does not
// decode is an error: recovery must not silently skip a tenant.
func ListTenants(dataDir string) ([]Tenant, error) {
	entries, err := os.ReadDir(dataDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var tenants []Tenant
	for _, e := range entries {
		if !e.IsDir() || strings.HasSuffix(e.Name(), removingSuffix) {
			continue
		}
		id, err := DecodeTenantID(e.Name())
		if err != nil {
			return nil, err
		}
		tenants = append(tenants, Tenant{ID: id, Dir: filepath.Join(dataDir, e.Name())})
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].ID < tenants[j].ID })
	return tenants, nil
}
