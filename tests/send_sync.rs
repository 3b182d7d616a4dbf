//! Static thread-safety assertions for the device stack.
//!
//! A host driver may move the device or share traces between threads, so
//! every type reachable from the device must be `Send + Sync`.
//! That holds today because the whole workspace is `Rc`/`RefCell`-free and
//! `#![forbid(unsafe_code)]`, but nothing short of these assertions keeps
//! it true: one stray `Rc` deep inside the FTL would silently pin the
//! device to one thread. These checks fail at *compile* time, so a
//! regression can never reach a runtime test, let alone a release.

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn device_layer_is_send_sync() {
    assert_send_sync::<ssd_insider::SsdInsider>();
    assert_send_sync::<ssd_insider::InsiderConfig>();
    assert_send_sync::<ssd_insider::DeviceError>();
    assert_send_sync::<ssd_insider::DeviceEvent>();
    assert_send_sync::<ssd_insider::EventLog>();
    assert_send_sync::<ssd_insider::DramUsage>();
    assert_send_sync::<ssd_insider::FsBridge>();
}

#[test]
fn ftl_layer_is_send_sync() {
    assert_send_sync::<insider_ftl::InsiderFtl>();
    assert_send_sync::<insider_ftl::FtlConfig>();
    assert_send_sync::<insider_ftl::MappingTable>();
    assert_send_sync::<insider_ftl::RecoveryQueue>();
    assert_send_sync::<insider_ftl::FtlStats>();
    assert_send_sync::<insider_ftl::RollbackReport>();
}

#[test]
fn detector_layer_is_send_sync() {
    assert_send_sync::<insider_detect::Detector>();
    assert_send_sync::<insider_detect::FeatureEngine>();
    assert_send_sync::<insider_detect::CountingTable>();
    assert_send_sync::<insider_detect::DecisionTree>();
    assert_send_sync::<insider_detect::LbaRangeSet>();
    assert_send_sync::<insider_detect::Verdict>();
}

#[test]
fn nand_layer_is_send_sync() {
    assert_send_sync::<insider_nand::NandDevice>();
    assert_send_sync::<insider_nand::Geometry>();
    assert_send_sync::<insider_nand::NandStats>();
    assert_send_sync::<insider_nand::FaultPlan>();
}

#[test]
fn workload_layer_is_send_sync() {
    // Traces are generated once and may be shared (`&Trace`) across
    // threads.
    assert_send_sync::<insider_workloads::Trace>();
    assert_send_sync::<insider_detect::IoReq>();
}
