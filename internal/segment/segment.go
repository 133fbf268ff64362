// Package segment implements the sealed segment file: the durable,
// mmap-able form of a frozen live-store base. The paper's access-schema
// index tables ("project on X ∪ Y, index on X") serialize naturally —
// tuples are stored once per relation and each index group is just the
// witness positions of its entries, so loading a segment reconstructs
// the exact index structure BuildAccessIndex produced, without
// re-scanning the data.
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
//	    u64 #groups | per group: u32 #entries, u32×witness positions
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
		buf = value.AppendStr(buf, ac.Rel)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(ac.X)))
		for _, a := range ac.X {
			buf = value.AppendStr(buf, a)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(ac.Y)))
		for _, a := range ac.Y {
			buf = value.AppendStr(buf, a)
		}
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
			for _, v := range t {
				buf = v.AppendKey(buf)
			}
			if len(buf) >= stageBytes {
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
		type group struct {
			key     string
			entries []storage.IndexEntry
		}
		groups := make([]group, 0, idx.NumGroups())
		for xKey, entries := range idx.Groups() {
			groups = append(groups, group{xKey, entries})
		}
		sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(groups)))
		for _, g := range groups {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(g.entries)))
			for _, e := range g.entries {
				buf = binary.BigEndian.AppendUint32(buf, uint32(e.Pos))
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

	b := body[len(headMagic):]
	version, b, err := value.TakeU32(b)
	if err != nil {
		return nil, nil, 0, loadErr(path, err)
	}
	if version != formatVersion {
		return nil, nil, 0, fmt.Errorf("segment: %s: unsupported format version %d", path, version)
	}
	epoch, b, err := value.TakeU64(b)
	if err != nil {
		return nil, nil, 0, loadErr(path, err)
	}

	nacs, b, err := value.TakeU32(b)
	if err != nil {
		return nil, nil, 0, loadErr(path, err)
	}
	acs := make([]schema.AccessConstraint, 0, nacs)
	for i := uint32(0); i < nacs; i++ {
		var rel string
		rel, b, err = value.TakeStr(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		var x, y []string
		x, b, err = value.TakeStrs(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		y, b, err = value.TakeStrs(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		var n uint64
		n, b, err = value.TakeU64(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		ac, err := schema.NewAccessConstraint(rel, x, y, int64(n))
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		acs = append(acs, ac)
	}
	acc, err := schema.NewAccessSchema(acs...)
	if err != nil {
		return nil, nil, 0, loadErr(path, err)
	}
	if err := acc.Validate(cat); err != nil {
		return nil, nil, 0, fmt.Errorf("segment: %s: recorded schema no longer matches catalog: %w", path, err)
	}

	db := storage.NewDatabase(cat)
	nrels, b, err := value.TakeU32(b)
	if err != nil {
		return nil, nil, 0, loadErr(path, err)
	}
	for i := uint32(0); i < nrels; i++ {
		var name string
		name, b, err = value.TakeStr(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		rs, ok := cat.Relation(name)
		if !ok {
			return nil, nil, 0, fmt.Errorf("segment: %s: relation %s not in catalog", path, name)
		}
		var arity uint32
		arity, b, err = value.TakeU32(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		if int(arity) != rs.Arity() {
			return nil, nil, 0, fmt.Errorf("segment: %s: relation %s arity %d, catalog says %d", path, name, arity, rs.Arity())
		}
		var ntuples uint64
		ntuples, b, err = value.TakeU64(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		for j := uint64(0); j < ntuples; j++ {
			t := make(value.Tuple, arity)
			for k := range t {
				t[k], b, err = value.DecodeValue(b)
				if err != nil {
					return nil, nil, 0, loadErr(path, err)
				}
			}
			if err := db.Insert(name, t); err != nil {
				return nil, nil, 0, loadErr(path, err)
			}
		}
	}

	nblocks, b, err := value.TakeU32(b)
	if err != nil {
		return nil, nil, 0, loadErr(path, err)
	}
	if int(nblocks) != len(acs) {
		return nil, nil, 0, fmt.Errorf("segment: %s: %d index blocks for %d constraints", path, nblocks, len(acs))
	}
	groups := make(map[string][][]int, nblocks)
	for i := uint32(0); i < nblocks; i++ {
		var ngroups uint64
		ngroups, b, err = value.TakeU64(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		gs := make([][]int, 0, ngroups)
		for j := uint64(0); j < ngroups; j++ {
			var nentries uint32
			nentries, b, err = value.TakeU32(b)
			if err != nil {
				return nil, nil, 0, loadErr(path, err)
			}
			g := make([]int, nentries)
			for k := range g {
				var pos uint32
				pos, b, err = value.TakeU32(b)
				if err != nil {
					return nil, nil, 0, loadErr(path, err)
				}
				g[k] = int(pos)
			}
			gs = append(gs, g)
		}
		groups[acs[i].Key()] = gs
	}
	if len(b) != 0 {
		return nil, nil, 0, fmt.Errorf("segment: %s: %d trailing bytes", path, len(b))
	}
	if err := db.RestoreIndexes(acc, groups); err != nil {
		return nil, nil, 0, loadErr(path, err)
	}
	return db, acc, epoch, nil
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

func loadErr(path string, err error) error {
	return fmt.Errorf("segment: %s: %w", path, err)
}
