//! Property tests: MiniExt behaves like an in-memory map of file names to
//! contents, under arbitrary create/write/rename/delete sequences, both on
//! the in-memory device and on a full SSD-Insider device; what a live mount
//! holds in memory is what a fresh mount reads off the device, after every
//! operation; and fsck never reports corruption on a cleanly produced
//! filesystem.

use insider_fs::{fsck, BlockDev, FsConfig, FsError, MemDev, MiniExt};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Write { name: u8, size: usize },
    Create { name: u8 },
    Rename { from: u8, to: u8 },
    Delete { name: u8 },
    Exists { name: u8 },
    Stat { name: u8 },
    Remount,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u8..8, 0usize..30_000).prop_map(|(name, size)| Op::Write { name, size }),
        1 => (0u8..8).prop_map(|name| Op::Create { name }),
        2 => (0u8..8, 0u8..8).prop_map(|(from, to)| Op::Rename { from, to }),
        2 => (0u8..8).prop_map(|name| Op::Delete { name }),
        1 => (0u8..8).prop_map(|name| Op::Exists { name }),
        1 => (0u8..8).prop_map(|name| Op::Stat { name }),
        1 => Just(Op::Remount),
    ]
}

/// Runs one op against the filesystem and the map, checking the outcome the
/// map predicts. The mount travels by value because `Remount` replaces it.
fn apply<D: BlockDev>(
    mut fs: MiniExt<D>,
    oracle: &mut HashMap<u8, Vec<u8>>,
    op: &Op,
) -> Result<MiniExt<D>, TestCaseError> {
    let file = |n: u8| format!("f{n}");
    match *op {
        Op::Write { name, size } => {
            let content = content_for(name, size);
            fs.write_file(&file(name), &content).unwrap();
            oracle.insert(name, content);
        }
        Op::Create { name } => {
            let taken = oracle.contains_key(&name);
            let got = fs.create(&file(name));
            if taken {
                prop_assert_eq!(got, Err(FsError::AlreadyExists(file(name))));
            } else {
                prop_assert_eq!(got, Ok(()));
                oracle.insert(name, Vec::new());
            }
        }
        Op::Rename { from, to } => {
            let got = fs.rename(&file(from), &file(to));
            if from != to && oracle.contains_key(&to) {
                prop_assert_eq!(got, Err(FsError::AlreadyExists(file(to))));
            } else if !oracle.contains_key(&from) {
                prop_assert_eq!(got, Err(FsError::NotFound(file(from))));
            } else {
                prop_assert_eq!(got, Ok(()));
                let content = oracle.remove(&from).expect("checked above");
                oracle.insert(to, content);
            }
        }
        Op::Delete { name } => {
            let expect = oracle.remove(&name);
            let got = fs.delete(&file(name));
            prop_assert_eq!(expect.is_some(), got.is_ok());
        }
        Op::Exists { name } => {
            prop_assert_eq!(fs.exists(&file(name)).unwrap(), oracle.contains_key(&name));
        }
        Op::Stat { name } => {
            let got = fs.stat(&file(name)).map(|inode| inode.size);
            match oracle.get(&name) {
                Some(content) => prop_assert_eq!(got, Ok(content.len() as u64)),
                None => prop_assert_eq!(got, Err(FsError::NotFound(file(name)))),
            }
        }
        Op::Remount => fs = MiniExt::mount(fs.into_dev()).unwrap(),
    }
    Ok(fs)
}

/// The resident metadata of a live mount against a fresh mount of the same
/// device image: the directory in order, and every file inode for inode.
fn memory_equals_device(fs: &mut MiniExt<MemDev>) -> TestCaseResult {
    let mut fresh = MiniExt::mount(fs.dev_mut().clone()).unwrap();
    let names = fs.list().unwrap();
    prop_assert_eq!(&names, &fresh.list().unwrap());
    for name in &names {
        prop_assert_eq!(fs.stat(name).unwrap(), fresh.stat(name).unwrap());
    }
    Ok(())
}

fn content_for(name: u8, size: usize) -> Vec<u8> {
    (0..size)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(name))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn miniext_matches_map_oracle(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let dev = MemDev::new(1024, 4096);
        let mut fs = MiniExt::format(dev, &FsConfig { inode_count: 64 }).unwrap();
        let mut oracle: HashMap<u8, Vec<u8>> = HashMap::new();

        for op in &ops {
            fs = apply(fs, &mut oracle, op)?;
            memory_equals_device(&mut fs)?;
        }

        // Full verification sweep.
        let mut names = fs.list().unwrap();
        names.sort();
        let mut expected: Vec<String> = oracle.keys().map(|n| format!("f{n}")).collect();
        expected.sort();
        prop_assert_eq!(names, expected);
        for (name, content) in &oracle {
            prop_assert_eq!(&fs.read_file(&format!("f{name}")).unwrap(), content);
        }

        // A cleanly produced filesystem must pass fsck with no findings.
        let dev = fs.into_dev();
        let (report, dev) = fsck(dev).unwrap();
        prop_assert!(report.is_clean(), "unexpected corruption: {}", report);

        // And free-space accounting must balance: format-fresh free count
        // minus live usage equals the current superblock counter.
        let fs = MiniExt::mount(dev).unwrap();
        let sb = fs.superblock();
        prop_assert!(sb.free_blocks <= sb.data_blocks());
    }

    #[test]
    fn miniext_on_ssd_insider_device_matches_oracle(
        ops in prop::collection::vec(op_strategy(), 1..40)
    ) {
        use insider_nand::{Geometry, SimTime};
        use ssd_insider::{FsBridge, InsiderConfig, SsdInsider};

        let geometry = Geometry::builder()
            .channels(2)
            .chips_per_channel(2)
            .blocks_per_chip(32)
            .pages_per_block(64)
            .page_size(4096)
            .build();
        let device = SsdInsider::new(
            InsiderConfig::new(geometry),
            insider_detect::DecisionTree::constant(false),
        );
        let bridge = FsBridge::new(device, SimTime::ZERO, SimTime::from_micros(100));
        let mut fs = MiniExt::format(bridge, &FsConfig { inode_count: 64 }).unwrap();
        let mut oracle: HashMap<u8, Vec<u8>> = HashMap::new();

        for op in &ops {
            fs = apply(fs, &mut oracle, op)?;
        }
        for (name, content) in &oracle {
            prop_assert_eq!(&fs.read_file(&format!("f{name}")).unwrap(), content);
        }
    }
}
