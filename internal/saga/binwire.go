package saga

import "e2eqos/internal/wire"

// Binary codecs for the saga journal records and the coordinator
// snapshot (DESIGN.md §6.6). The AppendBinary/DecodeBinary pairs
// satisfy the journal's BinaryRecord/BinaryDecoder interfaces. A step's
// Data is a bytes field, so any compensation argument round-trips.

// Step: 1=id 2=kind 3=data 4=done.
func (s *Step) appendFields(buf []byte) []byte {
	buf = wire.AppendInt(buf, 1, int64(s.ID))
	buf = wire.AppendString(buf, 2, s.Kind)
	buf = wire.AppendBytes(buf, 3, s.Data)
	return wire.AppendBool(buf, 4, s.Done)
}

func (s *Step) decodeFields(data []byte) error {
	d := wire.Dec{Buf: data}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TVarint:
			s.ID = int(d.Varint())
		case f == 2 && wt == wire.TBytes:
			s.Kind = d.String()
		case f == 3 && wt == wire.TBytes:
			s.Data = append([]byte(nil), d.Bytes()...)
		case f == 4 && wt == wire.TVarint:
			s.Done = d.Bool()
		default:
			d.Skip(wt)
		}
	}
	return d.Err()
}

// markRec: 1=id 2=step_id.
func (r markRec) AppendBinary(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, r.ID)
	return wire.AppendInt(buf, 2, int64(r.StepID))
}

func (r *markRec) DecodeBinary(data []byte) error {
	d := wire.Dec{Buf: data}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			r.ID = d.String()
		case f == 2 && wt == wire.TVarint:
			r.StepID = int(d.Varint())
		default:
			d.Skip(wt)
		}
	}
	return d.Err()
}

// stepRec: 1=id 2=step.
func (r stepRec) AppendBinary(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, r.ID)
	var start int
	buf, start = wire.BeginNested(buf, 2)
	buf = r.Step.appendFields(buf)
	return wire.EndNested(buf, start)
}

func (r *stepRec) DecodeBinary(data []byte) error {
	d := wire.Dec{Buf: data}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			r.ID = d.String()
		case f == 2 && wt == wire.TBytes:
			if err := r.Step.decodeFields(d.Bytes()); err != nil {
				return err
			}
		default:
			d.Skip(wt)
		}
	}
	return d.Err()
}

// Coordinator snapshot: repeated 1=saga, each Snap being 1=id
// 2=aborting 3=steps(repeated).
func appendSnaps(buf []byte, snaps []Snap) []byte {
	for i := range snaps {
		sn := &snaps[i]
		var start int
		buf, start = wire.BeginNested(buf, 1)
		buf = wire.AppendString(buf, 1, sn.ID)
		buf = wire.AppendBool(buf, 2, sn.Aborting)
		for j := range sn.Steps {
			var st int
			buf, st = wire.BeginNested(buf, 3)
			buf = sn.Steps[j].appendFields(buf)
			buf = wire.EndNested(buf, st)
		}
		buf = wire.EndNested(buf, start)
	}
	return buf
}

func decodeSnaps(data []byte) ([]Snap, error) {
	var snaps []Snap
	d := wire.Dec{Buf: data}
	for d.More() {
		f, wt := d.Tag()
		if f != 1 || wt != wire.TBytes {
			d.Skip(wt)
			continue
		}
		var sn Snap
		sub := wire.Dec{Buf: d.Bytes()}
		for sub.More() {
			sf, swt := sub.Tag()
			switch {
			case sf == 1 && swt == wire.TBytes:
				sn.ID = sub.String()
			case sf == 2 && swt == wire.TVarint:
				sn.Aborting = sub.Bool()
			case sf == 3 && swt == wire.TBytes:
				var st Step
				if err := st.decodeFields(sub.Bytes()); err != nil {
					return nil, err
				}
				sn.Steps = append(sn.Steps, st)
			default:
				sub.Skip(swt)
			}
		}
		if err := sub.Err(); err != nil {
			return nil, err
		}
		snaps = append(snaps, sn)
	}
	return snaps, d.Err()
}
