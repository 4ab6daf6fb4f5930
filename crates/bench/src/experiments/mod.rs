//! One module per group of paper tables/figures. Every public function returns a
//! [`Report`](crate::report::Report) that the corresponding binary prints and saves.

pub mod characterize;
pub mod detection;
pub mod knowledgeable;
pub mod recovery;
pub mod timing;
