package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/app"
	"repro/internal/frameio"
)

// Platform backup: Symphony hosts everything designers create, so the
// platform can serialize its durable state — the proprietary data
// store and the published application configurations — and restore it
// into a fresh platform (over the same corpus seed). Interaction logs
// and ad state are operational, not configuration, and are excluded.

// backupDoc version 2 carries the store as an opaque byte blob
// (base64 in JSON) holding a store snapshot in the format of the
// binary that took it (v4 here). Version 1, which
// carried the store's v1 JSON document inline, is refused with
// frameio.ErrUnsupportedFormat.
type backupDoc struct {
	Version int               `json:"version"`
	Store   []byte            `json:"store"`
	Apps    []json.RawMessage `json:"apps"`
}

// Backup serializes designers' durable state to w. It is an
// operator-invoked batch job without a request context, so the
// snapshot runs uncancellable.
func (p *Platform) Backup(w io.Writer) error {
	var storeBuf bytes.Buffer
	if err := p.Store.SnapshotContext(context.Background(), &storeBuf); err != nil {
		return fmt.Errorf("core: backup: %w", err)
	}
	doc := backupDoc{Version: 2, Store: storeBuf.Bytes()}
	for _, id := range p.Registry.List() {
		a, _ := p.Registry.Get(id)
		data, err := app.Marshal(a)
		if err != nil {
			return fmt.Errorf("core: backup app %s: %w", id, err)
		}
		doc.Apps = append(doc.Apps, data)
	}
	return json.NewEncoder(w).Encode(doc)
}

// RestoreBackup loads a version-2 backup into this platform,
// replacing the store contents and re-publishing every application.
func (p *Platform) RestoreBackup(r io.Reader) error {
	var raw struct {
		Version int               `json:"version"`
		Store   json.RawMessage   `json:"store"`
		Apps    []json.RawMessage `json:"apps"`
	}
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	switch raw.Version {
	case 1:
		return fmt.Errorf("core: restore: backup version 1, the floor is 2: %w", frameio.ErrUnsupportedFormat)
	case 2:
	default:
		return fmt.Errorf("core: restore: unsupported backup version %d", raw.Version)
	}
	var snap []byte
	if err := json.Unmarshal(raw.Store, &snap); err != nil {
		return fmt.Errorf("core: restore: store blob: %w", err)
	}
	if err := p.Store.RestoreContext(context.Background(), snap); err != nil {
		return err
	}
	for _, raw := range raw.Apps {
		a, err := app.Unmarshal(raw)
		if err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
		if err := p.Registry.Publish(a); err != nil {
			return fmt.Errorf("core: restore app %s: %w", a.ID, err)
		}
	}
	return nil
}
