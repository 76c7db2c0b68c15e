//! Property tests for the RAID-5 array: read-back correctness under
//! arbitrary write sequences, parity maintenance (any single member
//! may fail at any point), and geometry invariants.

use blockdev::{BlockDevice, MemDisk, Raid5, Raid5Geometry, BLOCK_SIZE};
use proptest::prelude::*;
use std::rc::Rc;

fn array(members: usize, unit: u64) -> Raid5 {
    let ms: Vec<Rc<dyn BlockDevice>> = (0..members)
        .map(|i| Rc::new(MemDisk::new(format!("m{i}"), 512)) as Rc<dyn BlockDevice>)
        .collect();
    Raid5::new("r5", ms, Raid5Geometry { stripe_unit: unit })
}

fn block_of(tag: u16) -> Vec<u8> {
    let mut b = vec![0u8; BLOCK_SIZE];
    b[0] = (tag & 0xFF) as u8;
    b[1] = (tag >> 8) as u8;
    b[100] = 0xA5;
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever sequence of writes lands on the array, reading back
    /// yields the last value written to each block.
    #[test]
    fn read_back_matches_last_write(
        members in 3usize..7,
        unit in 1u64..9,
        writes in prop::collection::vec((0u64..600, 0u16..u16::MAX), 1..60),
    ) {
        let r = array(members, unit);
        let cap = r.block_count();
        let mut model = std::collections::HashMap::new();
        for (lb, tag) in writes {
            let lb = lb % cap;
            r.write(lb, &block_of(tag)).unwrap();
            model.insert(lb, tag);
        }
        let mut buf = vec![0u8; BLOCK_SIZE];
        for (lb, tag) in model {
            r.read(lb, 1, &mut buf).unwrap();
            prop_assert_eq!(u16::from_le_bytes([buf[0], buf[1]]), tag);
        }
    }

    /// Parity is maintained continuously: after any write sequence,
    /// any single member may fail and every block is still readable
    /// with its correct content.
    #[test]
    fn any_single_failure_is_survivable(
        members in 3usize..6,
        failed in 0usize..6,
        writes in prop::collection::vec((0u64..400, 0u16..u16::MAX), 1..40),
    ) {
        let r = array(members, 4);
        let cap = r.block_count();
        let mut model = std::collections::HashMap::new();
        for (lb, tag) in writes {
            let lb = lb % cap;
            r.write(lb, &block_of(tag)).unwrap();
            model.insert(lb, tag);
        }
        r.fail_member(failed % members);
        let mut buf = vec![0u8; BLOCK_SIZE];
        for (lb, tag) in model {
            r.read(lb, 1, &mut buf).unwrap();
            prop_assert_eq!(u16::from_le_bytes([buf[0], buf[1]]), tag);
            prop_assert_eq!(buf[100], 0xA5);
        }
    }

    /// Writes in degraded mode remain durable once the member heals
    /// — parity absorbs updates for the missing disk.
    #[test]
    fn degraded_writes_survive(
        members in 3usize..6,
        failed in 0usize..6,
        writes in prop::collection::vec((0u64..200, 0u16..u16::MAX), 1..20),
    ) {
        let r = array(members, 2);
        let cap = r.block_count();
        let failed = failed % members;
        r.fail_member(failed);
        let mut model = std::collections::HashMap::new();
        for (lb, tag) in writes {
            let lb = lb % cap;
            r.write(lb, &block_of(tag)).unwrap();
            model.insert(lb, tag);
        }
        // Still degraded: reads reconstruct.
        let mut buf = vec![0u8; BLOCK_SIZE];
        for (&lb, &tag) in &model {
            r.read(lb, 1, &mut buf).unwrap();
            prop_assert_eq!(u16::from_le_bytes([buf[0], buf[1]]), tag);
        }
        // Healed, then another member fails: every block still reads
        // back, which needs the first member back in service.
        r.heal_member(failed).unwrap();
        r.fail_member((failed + 1) % members);
        for lb in 0..cap {
            r.read(lb, 1, &mut buf).unwrap();
            let tag = model.get(&lb).map_or([0, 0], |t: &u16| t.to_le_bytes());
            prop_assert_eq!([buf[0], buf[1]], tag, "block {}", lb);
        }
    }

    /// Multi-block requests equal the equivalent single-block ones.
    #[test]
    fn vectored_requests_match_single(
        start in 0u64..100,
        n in 1u32..8,
        seed in 0u16..u16::MAX,
    ) {
        let r = array(5, 4);
        let mut data = Vec::new();
        for i in 0..n {
            data.extend_from_slice(&block_of(seed.wrapping_add(i as u16)));
        }
        r.write(start, &data).unwrap();
        let mut all = vec![0u8; (n as usize) * BLOCK_SIZE];
        r.read(start, n, &mut all).unwrap();
        prop_assert_eq!(&all, &data);
        for i in 0..n as u64 {
            let mut one = vec![0u8; BLOCK_SIZE];
            r.read(start + i, 1, &mut one).unwrap();
            prop_assert_eq!(&one[..], &data[(i as usize) * BLOCK_SIZE..][..BLOCK_SIZE]);
        }
    }
}

/// An update made while its data member is down survives the heal:
/// the member comes back with the new block, not the one it held when
/// it failed. Every member takes a turn as the failed one; with the
/// left-symmetric layout block 0's data lives on member 0.
#[test]
fn heal_keeps_writes_made_while_the_member_was_down() {
    for failed in 0..5 {
        let r = array(5, 4);
        r.write(0, &block_of(1)).unwrap();
        r.fail_member(failed);
        r.write(0, &block_of(2)).unwrap();
        r.heal_member(failed).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        r.read(0, 1, &mut buf).unwrap();
        assert_eq!(
            u16::from_le_bytes([buf[0], buf[1]]),
            2,
            "member {failed} failed and healed"
        );
    }
}
