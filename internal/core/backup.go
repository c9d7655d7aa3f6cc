package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/app"
)

// Platform backup: Symphony hosts everything designers create, so the
// platform can serialize its durable state — the proprietary data
// store and the published application configurations — and restore it
// into a fresh platform (over the same corpus seed). Interaction logs
// and ad state are operational, not configuration, and are excluded.

// backupDoc version 2 carries the store as an opaque byte blob
// (base64 in JSON) holding a store snapshot: format v3 when written
// by Backup, though any format the store restores is accepted.
// Version 1 carried the store's legacy v1 JSON document inline;
// RestoreBackup still reads it.
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

// RestoreBackup loads a backup into this platform, replacing the
// store contents and re-publishing every application. Both backup
// versions restore: v1 embedded the store as raw JSON, v2 embeds a
// framed binary snapshot; the store's restore reads either format.
func (p *Platform) RestoreBackup(r io.Reader) error {
	var raw struct {
		Version int               `json:"version"`
		Store   json.RawMessage   `json:"store"`
		Apps    []json.RawMessage `json:"apps"`
	}
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	doc := backupDoc{Version: raw.Version, Apps: raw.Apps}
	switch raw.Version {
	case 1:
		// v1 stored the snapshot JSON document inline.
		doc.Store = raw.Store
	case 2:
		if err := json.Unmarshal(raw.Store, &doc.Store); err != nil {
			return fmt.Errorf("core: restore: store blob: %w", err)
		}
	default:
		return fmt.Errorf("core: restore: unsupported backup version %d", raw.Version)
	}
	if err := p.Store.RestoreContext(context.Background(), doc.Store); err != nil {
		return err
	}
	for _, raw := range doc.Apps {
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
