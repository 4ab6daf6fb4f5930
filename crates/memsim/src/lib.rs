//! DRAM device model and rowhammer-style run-time fault injection.
//!
//! The RADAR threat model assumes the DNN's quantized weights live in DRAM main memory
//! (they are too large for on-chip SRAM) and that the attacker flips the PBFA-identified
//! bits there at run time via rowhammer. This crate provides:
//!
//! * [`WeightDram`] — a bank/row/column DRAM image of a model's weight bytes, with
//!   address translation, bit-precise corruption and a `fetch_into` path modelling the
//!   DRAM → on-chip transfer that precedes RADAR's check. `layer_bytes` hands one
//!   layer's raw bytes to the detector's fused fetch-and-verify kernel; the
//!   simulator itself knows nothing of signatures.
//! * [`RowhammerInjector`] — mounts an [`AttackProfile`](radar_attack::AttackProfile)
//!   onto the stored image, optionally with a per-flip success probability.
//! * [`AttackTimeline`] / [`MountEvent`] — scripted mid-service strikes at
//!   batch-granular timeline offsets, so an online serving run replays the same attack
//!   deterministically; repeated mounts aggregate via [`MountReport::merge`].
//!
//! # Example
//!
//! ```
//! use radar_memsim::{DramGeometry, RowhammerInjector, WeightDram};
//! use radar_nn::{resnet20, ResNetConfig};
//! use radar_quant::QuantizedModel;
//!
//! let model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(10))));
//! let dram = WeightDram::load(&model, DramGeometry::default());
//! let addr = dram.address_of(dram.offset_of(0, 0));
//! assert!(addr.bank < dram.geometry().banks);
//! let _injector = RowhammerInjector::default();
//! ```

mod dram;
mod rowhammer;
mod timeline;

pub use dram::{DramAddress, DramGeometry, WeightDram};
pub use rowhammer::{MountReport, RowhammerInjector};
pub use timeline::{AttackTimeline, MountEvent};

// Campaign workers own a `WeightDram` per scenario cell and share injector configs
// across scoped threads; enforce `Send + Sync` at compile time so the parallel engine
// cannot be broken by a non-thread-safe field sneaking into these types.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WeightDram>();
    assert_send_sync::<DramGeometry>();
    assert_send_sync::<DramAddress>();
    assert_send_sync::<RowhammerInjector>();
    assert_send_sync::<MountReport>();
    assert_send_sync::<MountEvent>();
    assert_send_sync::<AttackTimeline>();
};
