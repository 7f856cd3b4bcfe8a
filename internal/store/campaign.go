package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
)

// CampaignMetaFile is the name of the fingerprint file OpenCampaign
// maintains inside a store directory.
const CampaignMetaFile = "campaign.json"

// ErrCampaignMismatch is wrapped by OpenCampaign when the store was
// written under a different campaign fingerprint.
var ErrCampaignMismatch = errors.New("store: campaign fingerprint mismatch")

// OpenCampaign opens (or creates) a campaign store: a store directory
// carrying a JSON fingerprint of every setting that shapes results.
// On a fresh directory the fingerprint is recorded (write-then-rename,
// so a crash mid-write cannot leave a torn file that blocks every later
// resume); on an existing one it must match, or OpenCampaign fails
// wrapping ErrCampaignMismatch — mixing rows computed under different
// settings into one "coherent" aggregate must never happen silently.
//
// forms are the acceptable JSON spellings of the fingerprint: a fresh
// store records forms[0], and an existing one must match any of them
// (CampaignMatches), so the store is opened once whichever spelling it
// carries. Each form must be valid JSON; equality is structural, so
// formatting differences do not matter. No form degrades to a plain
// Open with no campaign discipline.
func OpenCampaign(dir string, opt Options, forms ...[]byte) (*Store, error) {
	s, err := Open(dir, opt)
	if err != nil {
		return nil, err
	}
	if len(forms) == 0 {
		return s, nil
	}
	if err := checkFingerprint(dir, forms, opt.ReadOnly); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func checkFingerprint(dir string, forms [][]byte, readOnly bool) error {
	for _, form := range forms {
		if err := json.Unmarshal(form, new(any)); err != nil {
			return fmt.Errorf("store: campaign fingerprint is not valid JSON: %w", err)
		}
	}
	have, raw, err := ReadCampaignMeta(dir)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, CampaignMetaFile)
	if raw == nil {
		if readOnly {
			return fmt.Errorf("store: %s carries no %s to verify against (not a campaign store?)", dir, CampaignMetaFile)
		}
		if err := writeFileAtomic(path, forms[0]); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return nil
	}
	if !CampaignMatches(have, forms...) {
		return fmt.Errorf("%w: %s holds a campaign run with different settings (see %s); repeat them exactly or use a fresh store",
			ErrCampaignMismatch, dir, path)
	}
	return nil
}

// ReadCampaignMeta reads dir's campaign.json: the decoded document, for
// CampaignMatches, and its bytes as stored, for propagating it
// verbatim. raw is nil when the store carries none.
func ReadCampaignMeta(dir string) (meta any, raw []byte, err error) {
	path := filepath.Join(dir, CampaignMetaFile)
	raw, err = os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return meta, raw, nil
}

// CampaignMatches reports whether have — a campaign.json as
// ReadCampaignMeta decodes it — structurally equals any of forms, the
// JSON spellings of an acceptable fingerprint. Formatting and key order
// do not matter; a form that is not valid JSON matches nothing. This is
// the one definition of "the same campaign" for resume, fold, upload
// verification and fold-target replacement.
func CampaignMatches(have any, forms ...[]byte) bool {
	for _, form := range forms {
		var want any
		if json.Unmarshal(form, &want) == nil && reflect.DeepEqual(have, want) {
			return true
		}
	}
	return false
}
