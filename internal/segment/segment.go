// Package segment implements the sealed segment file: the durable,
// mmap-able form of a frozen live-store base. The paper's access-schema
// index tables ("project on X ∪ Y, index on X") serialize naturally —
// tuples are stored once per relation and each index group is just the
// witness positions of its entries, so loading a segment feeds those
// positions to the index builder (storage.IndexRestore) and gets back the
// index BuildAccessIndex produced, group order aside.
//
// File layout (all integers big-endian; strings u32-length-prefixed;
// values in value.AppendKey encoding):
//
//	"BCQSEG1\n"                                   8-byte header magic
//	u32 format version (currently 1)
//	u64 epoch                                     checkpoint epoch
//	u32 #constraints | per constraint: rel, #x×attr, #y×attr, u64 N
//	u32 #relations   | per relation: name, u32 arity, u64 #tuples, values
//	u32 #index blocks (one per constraint, same order):
//	    u64 #groups | per group (arena order): u32 #entries, u32×positions
//	u32 CRC-32C of everything above
//	"BCQSEGF\n"                                   8-byte footer magic
//
// A segment is written to a temp file, fsynced, atomically renamed into
// place, and the directory fsynced — so a crash mid-checkpoint leaves
// either the old segment set or the new one, never a half-written file
// that passes validation. The footer checksum covers the whole body, so
// truncation and bit flips are both detected at load time.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

const (
	headMagic     = "BCQSEG1\n"
	footMagic     = "BCQSEGF\n"
	formatVersion = 1
	// Suffix and prefix of segment file names: seg-<16-hex-epoch>.bcq.
	namePrefix = "seg-"
	nameSuffix = ".bcq"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Info describes one segment file on disk.
type Info struct {
	Path  string
	Epoch uint64
	Bytes int64
}

// Path returns the canonical file name for a checkpoint epoch. Epochs are
// zero-padded hex so lexicographic order is epoch order.
func Path(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", namePrefix, epoch, nameSuffix))
}

// List returns the segment files in dir, newest (highest epoch) first.
// Files that merely look like segments but have unparsable names are
// ignored.
func List(dir string) []Info {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []Info
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, namePrefix) || !strings.HasSuffix(name, nameSuffix) {
			continue
		}
		hexPart := strings.TrimSuffix(strings.TrimPrefix(name, namePrefix), nameSuffix)
		epoch, err := strconv.ParseUint(hexPart, 16, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, Info{Path: filepath.Join(dir, name), Epoch: epoch, Bytes: info.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch > out[j].Epoch })
	return out
}

// Write serializes a sealed database (with its access schema's indexes
// built) as the segment for a checkpoint epoch and atomically installs it
// in dir. It returns the installed file's Info.
func Write(dir string, db *storage.Database, acc *schema.AccessSchema, epoch uint64) (Info, error) {
	final := Path(dir, epoch)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return Info{}, err
	}
	size, err := encode(f, db, acc, epoch)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return Info{}, err
	}
	if err := syncDir(dir); err != nil {
		return Info{}, err
	}
	return Info{Path: final, Epoch: epoch, Bytes: size}, nil
}

// stageBytes is how much of the encoding encode holds before it hands it
// to the file: a checkpoint's memory does not grow with the data.
const stageBytes = 1 << 16

// encode writes the segment's bytes to f and returns how many there were.
// The checksum runs over the body as it leaves the staging buffer.
func encode(f *os.File, db *storage.Database, acc *schema.AccessSchema, epoch uint64) (int64, error) {
	buf := make([]byte, 0, 2*stageBytes)
	var sum uint32
	var size int64
	flush := func() error {
		if _, err := f.Write(buf); err != nil {
			return fmt.Errorf("segment: write %s: %w", f.Name(), err)
		}
		sum = crc32.Update(sum, castagnoli, buf)
		size += int64(len(buf))
		buf = buf[:0]
		return nil
	}

	buf = append(buf, headMagic...)
	buf = binary.BigEndian.AppendUint32(buf, formatVersion)
	buf = binary.BigEndian.AppendUint64(buf, epoch)

	acs := acc.Constraints()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(acs)))
	for _, ac := range acs {
		buf = value.AppendStrs(value.AppendStrs(value.AppendStr(buf, ac.Rel), ac.X), ac.Y)
		buf = binary.BigEndian.AppendUint64(buf, uint64(ac.N))
	}

	rels := db.Catalog().Relations()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rels)))
	for _, rs := range rels {
		rel, err := db.Relation(rs.Name())
		if err != nil {
			return 0, err
		}
		buf = value.AppendStr(buf, rs.Name())
		buf = binary.BigEndian.AppendUint32(buf, uint32(rs.Arity()))
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(rel.Tuples)))
		for _, t := range rel.Tuples {
			if buf = t.AppendKey(buf); len(buf) >= stageBytes {
				if err := flush(); err != nil {
					return 0, err
				}
			}
		}
	}

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(acs)))
	for _, ac := range acs {
		idx, ok := db.AccessIndexFor(ac)
		if !ok {
			return 0, fmt.Errorf("segment: no index built for constraint %s", ac)
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(idx.NumGroups()))
		for g := range idx.Groups() {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(g)))
			for _, e := range g {
				buf = binary.BigEndian.AppendUint32(buf, uint32(e.Pos()))
			}
			if len(buf) >= stageBytes {
				if err := flush(); err != nil {
					return 0, err
				}
			}
		}
	}

	if err := flush(); err != nil {
		return 0, err
	}
	buf = binary.BigEndian.AppendUint32(buf, sum)
	buf = append(buf, footMagic...)
	err := flush()
	return size, err
}

// Load reads and validates a segment file and reconstructs the sealed
// database it checkpointed, together with the access schema in force at
// the checkpoint and the checkpoint epoch. The file is mapped read-only
// where the platform supports it (tuple values copy out of the mapping,
// which is then released).
func Load(path string, cat *schema.Catalog) (*storage.Database, *schema.AccessSchema, uint64, error) {
	data, release, err := mapFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	defer release()

	if len(data) < len(headMagic)+4+8+4+len(footMagic) {
		return nil, nil, 0, fmt.Errorf("segment: %s too short (%d bytes)", path, len(data))
	}
	if string(data[:len(headMagic)]) != headMagic {
		return nil, nil, 0, fmt.Errorf("segment: %s: bad header magic", path)
	}
	if string(data[len(data)-len(footMagic):]) != footMagic {
		return nil, nil, 0, fmt.Errorf("segment: %s: bad footer magic (truncated?)", path)
	}
	body := data[: len(data)-len(footMagic)-4 : len(data)-len(footMagic)-4]
	crcBytes := data[len(data)-len(footMagic)-4 : len(data)-len(footMagic)]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(crcBytes) {
		return nil, nil, 0, fmt.Errorf("segment: %s: checksum mismatch", path)
	}

	db, acc, epoch, err := decode(body[len(headMagic):], cat)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("segment: %s: %w", path, err)
	}
	return db, acc, epoch, nil
}

// reader walks a segment body. Its first error sticks and every later
// read returns zero, so a decoding loop ends by itself.
type reader struct {
	b   []byte
	err error
}

// take decodes the next item with one of value's Take functions.
func take[T any](r *reader, f func([]byte) (T, []byte, error)) T {
	var v T
	if r.err == nil {
		v, r.b, r.err = f(r.b)
	}
	return v
}

// decode rebuilds the database a segment body (what follows the header
// magic) describes. Every count the body claims is bounded by the bytes
// left before anything is sized by it.
func decode(body []byte, cat *schema.Catalog) (*storage.Database, *schema.AccessSchema, uint64, error) {
	r := &reader{b: body}
	if v := take(r, value.TakeU32); r.err == nil && v != formatVersion {
		return nil, nil, 0, fmt.Errorf("unsupported format version %d", v)
	}
	epoch := take(r, value.TakeU64)
	var acs []schema.AccessConstraint
	for i := take(r, value.TakeU32); i > 0 && r.err == nil; i-- {
		rel, x, y, n := take(r, value.TakeStr), take(r, value.TakeStrs), take(r, value.TakeStrs), take(r, value.TakeU64)
		if r.err == nil {
			var ac schema.AccessConstraint
			ac, r.err = schema.NewAccessConstraint(rel, x, y, int64(n))
			acs = append(acs, ac)
		}
	}
	if r.err != nil {
		return nil, nil, 0, r.err
	}
	acc, err := schema.NewAccessSchema(acs...)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := acc.Validate(cat); err != nil {
		return nil, nil, 0, fmt.Errorf("recorded schema no longer matches catalog: %w", err)
	}

	db := storage.NewDatabase(cat)
	for i := take(r, value.TakeU32); i > 0 && r.err == nil; i-- {
		name, arity, ntuples := take(r, value.TakeStr), take(r, value.TakeU32), take(r, value.TakeU64)
		if rs, ok := cat.Relation(name); r.err == nil && (!ok || int(arity) != rs.Arity()) {
			return nil, nil, 0, fmt.Errorf("relation %s of arity %d is not in the catalog", name, arity)
		}
		for ; ntuples > 0 && r.err == nil; ntuples-- {
			t := make(value.Tuple, arity)
			for k := range t {
				t[k] = take(r, value.DecodeValue)
			}
			if r.err == nil {
				r.err = db.Insert(name, t)
			}
		}
	}
	if n := take(r, value.TakeU32); r.err == nil && int(n) != len(acs) {
		return nil, nil, 0, fmt.Errorf("%d index blocks for %d constraints", n, len(acs))
	}
	for i := 0; i < len(acs) && r.err == nil; i++ {
		ir, err := db.RestoreIndex(acs[i])
		if err != nil {
			return nil, nil, 0, err
		}
		// A group takes its u32 count at least, an entry its u32 position.
		ngroups := take(r, value.TakeU64)
		if ngroups > uint64(len(r.b)/4) {
			return nil, nil, 0, fmt.Errorf("%d index groups in %d bytes", ngroups, len(r.b))
		}
		for ; ngroups > 0 && r.err == nil; ngroups-- {
			n := take(r, value.TakeU32)
			if uint64(n) > uint64(len(r.b)/4) {
				return nil, nil, 0, fmt.Errorf("%d index entries in %d bytes", n, len(r.b))
			}
			for ; n > 0; n-- {
				if err := ir.Add(int(take(r, value.TakeU32))); err != nil {
					return nil, nil, 0, err
				}
			}
		}
		if r.err == nil {
			r.err = ir.Install()
		}
	}
	if r.err == nil && len(r.b) != 0 {
		return nil, nil, 0, fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return db, acc, epoch, r.err
}

// Prune removes segments older than the keep newest ones. Pruning is
// best-effort cleanup after a checkpoint — removal errors are ignored
// (an un-pruned segment is just disk space).
func Prune(dir string, keep int) {
	segs := List(dir)
	for i := keep; i < len(segs); i++ {
		os.Remove(segs[i].Path)
	}
}

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
