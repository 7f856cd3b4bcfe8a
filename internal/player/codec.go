package player

import (
	"encoding/json"
	"errors"
	"io"
)

// EncodeLog writes the session log as indented JSON, the interchange
// format of the `veritas` subcommands (sessionrun → abduct → whatif).
func EncodeLog(w io.Writer, log *SessionLog) error {
	if log == nil {
		return errors.New("player: nil session log")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// DecodeLog parses a session log written by EncodeLog.
func DecodeLog(r io.Reader) (*SessionLog, error) {
	var log SessionLog
	dec := json.NewDecoder(r)
	if err := dec.Decode(&log); err != nil {
		return nil, err
	}
	if len(log.Records) == 0 {
		return nil, errors.New("player: decoded log has no chunk records")
	}
	if log.ChunkSeconds <= 0 {
		return nil, errors.New("player: decoded log has non-positive chunk duration")
	}
	return &log, nil
}
