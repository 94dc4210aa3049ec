//! Protocol robustness: arbitrary bytes must never panic the decoders,
//! and valid messages must survive frame + codec round trips bit-exactly.

use proptest::prelude::*;
use swarm_net::{
    frame_header_for, read_frame, write_frame, Request, Response, ServerStats, StoreRange,
};
use swarm_types::{Aid, ByteWriter, ClientId, Decode, Encode, FragmentId};

fn arb_fid() -> impl Strategy<Value = FragmentId> {
    (0u32..100, 0u64..1_000_000).prop_map(|(c, s)| FragmentId::new(ClientId::new(c), s))
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            arb_fid(),
            any::<bool>(),
            proptest::collection::vec(
                (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(o, l, a)| StoreRange {
                    offset: o,
                    len: l,
                    aid: Aid::new(a)
                }),
                0..4
            ),
            proptest::collection::vec(any::<u8>(), 0..512),
        )
            .prop_map(|(fid, marked, ranges, data)| Request::Store {
                fid,
                marked,
                ranges,
                data: data.into()
            }),
        (arb_fid(), any::<u32>(), any::<u32>()).prop_map(|(fid, offset, len)| Request::Read {
            fid,
            offset,
            len
        }),
        arb_fid().prop_map(|fid| Request::Delete { fid }),
        (arb_fid(), any::<u32>()).prop_map(|(fid, len)| Request::Preallocate { fid, len }),
        Just(Request::LastMarked),
        (arb_fid(), any::<u32>()).prop_map(|(fid, header_len)| Request::Locate { fid, header_len }),
        proptest::collection::vec(0u32..1000, 0..6).prop_map(|m| Request::AclCreate {
            members: m.into_iter().map(ClientId::new).collect()
        }),
        Just(Request::Stat),
        Just(Request::Ping),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        proptest::collection::vec(any::<u8>(), 0..512).prop_map(|d| Response::Data(d.into())),
        (any::<bool>(), arb_fid())
            .prop_map(|(some, fid)| Response::LastMarked(some.then_some(fid))),
        (
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(some, h)| Response::Located(some.then(|| h.into()))),
        any::<u32>().prop_map(|a| Response::AclCreated(Aid::new(a))),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(fragments, bytes, stores, reads, deletes, capacity_fragments)| {
                    Response::Stats(ServerStats {
                        fragments,
                        bytes,
                        stores,
                        reads,
                        deletes,
                        capacity_fragments,
                    })
                }
            ),
        ".*".prop_map(Response::Metrics),
        (any::<u16>(), any::<u64>(), ".*").prop_map(|(code, datum, detail)| Response::Err {
            code,
            datum,
            detail,
        }),
    ]
}

/// Frames `msg` both ways — the contiguous path (`write_frame` over
/// `encode_to_vec`) and the segmented path (`encode_split` header +
/// payload behind `frame_header_for`) — and asserts identical wire bytes.
fn assert_vectored_framing_identical(header: &[u8], payload: &[u8], contiguous: &[u8]) {
    let mut old_wire = Vec::new();
    write_frame(&mut old_wire, contiguous).unwrap();
    let mut new_wire = frame_header_for(&[header, payload]).unwrap().to_vec();
    new_wire.extend_from_slice(header);
    new_wire.extend_from_slice(payload);
    assert_eq!(old_wire, new_wire);
}

proptest! {
    #[test]
    fn vectored_framing_matches_contiguous_for_requests(req in arb_request()) {
        let mut w = ByteWriter::new();
        let payload = req.encode_split(&mut w).unwrap_or(&[]);
        let mut concat = w.as_slice().to_vec();
        concat.extend_from_slice(payload);
        prop_assert_eq!(&concat, &req.encode_to_vec());
        assert_vectored_framing_identical(w.as_slice(), payload, &concat);
    }

    #[test]
    fn vectored_framing_matches_contiguous_for_responses(resp in arb_response()) {
        let mut w = ByteWriter::new();
        let payload = resp.encode_split(&mut w).unwrap_or(&[]);
        let mut concat = w.as_slice().to_vec();
        concat.extend_from_slice(payload);
        prop_assert_eq!(&concat, &resp.encode_to_vec());
        assert_vectored_framing_identical(w.as_slice(), payload, &concat);
    }

    #[test]
    fn decode_of_arbitrary_bytes_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode_all(&data);
        let _ = Response::decode_all(&data);
    }

    #[test]
    fn frames_of_arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_frame(std::io::Cursor::new(&data));
    }

    #[test]
    fn valid_requests_survive_frame_and_codec(req in arb_request()) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &req.encode_to_vec()).unwrap();
        let payload = read_frame(std::io::Cursor::new(&framed)).unwrap();
        prop_assert_eq!(Request::decode_all(&payload).unwrap(), req);
    }

    #[test]
    fn corrupted_frames_are_rejected_not_misparsed(
        req in arb_request(),
        flip_at in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &req.encode_to_vec()).unwrap();
        let i = flip_at.index(framed.len());
        framed[i] ^= 1 << flip_bit;
        match read_frame(std::io::Cursor::new(&framed)) {
            // Either the frame is rejected (bad magic/length/CRC)…
            Err(_) => {}
            // …or the CRC32 caught nothing because the flip was repaired
            // by coincidence — for single-bit flips that cannot happen,
            // so a successful parse must return the original request.
            Ok(payload) => {
                prop_assert_eq!(Request::decode_all(&payload).ok(), Some(req));
            }
        }
    }
}
