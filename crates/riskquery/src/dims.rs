//! Query dimensions and per-segment metadata.

use serde::{Deserialize, Serialize};

use catrisk_catmodel::exposure::Occupancy;
use catrisk_eventgen::peril::{Peril, Region};
use catrisk_finterms::layer::LayerId;

use crate::result::DimValue;

/// Line of business: the underwriting classification a segment's losses
/// belong to.  This is the third slicing dimension named by QuPARA (after
/// peril and region); the synthetic pipeline derives it from the exposure
/// book's dominant [`Occupancy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LineOfBusiness {
    /// Residential and commercial property.
    Property,
    /// Casualty / liability lines.
    Casualty,
    /// Marine and cargo.
    Marine,
    /// Energy, utilities and industrial facilities.
    Energy,
}

impl LineOfBusiness {
    /// All lines of business, in display order.
    pub const ALL: [LineOfBusiness; 4] = [
        LineOfBusiness::Property,
        LineOfBusiness::Casualty,
        LineOfBusiness::Marine,
        LineOfBusiness::Energy,
    ];

    /// Short reporting code.
    pub fn code(&self) -> &'static str {
        match self {
            LineOfBusiness::Property => "PROP",
            LineOfBusiness::Casualty => "CAS",
            LineOfBusiness::Marine => "MAR",
            LineOfBusiness::Energy => "ENG",
        }
    }
}

impl From<Occupancy> for LineOfBusiness {
    /// Maps a book's dominant occupancy onto the line written for it in the
    /// synthetic world.
    fn from(occupancy: Occupancy) -> Self {
        match occupancy {
            Occupancy::Residential => LineOfBusiness::Property,
            Occupancy::Commercial => LineOfBusiness::Casualty,
            Occupancy::Industrial => LineOfBusiness::Energy,
            Occupancy::Public => LineOfBusiness::Marine,
        }
    }
}

impl std::fmt::Display for LineOfBusiness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// A dimension segments can be filtered and grouped by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Dimension {
    /// The reinsurance layer the segment belongs to.
    Layer,
    /// The peril that generated the segment's losses.
    Peril,
    /// The geographic region of the underlying exposures.
    Region,
    /// The line of business written.
    Lob,
}

impl Dimension {
    /// All dimensions, in canonical display order.
    pub const ALL: [Dimension; 4] = [
        Dimension::Layer,
        Dimension::Peril,
        Dimension::Region,
        Dimension::Lob,
    ];

    /// The dimension's name as used in query text.
    pub fn name(&self) -> &'static str {
        match self {
            Dimension::Layer => "layer",
            Dimension::Peril => "peril",
            Dimension::Region => "region",
            Dimension::Lob => "lob",
        }
    }
}

impl std::fmt::Display for Dimension {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The dimension tags of one store segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// The layer the segment's losses belong to.
    pub layer: LayerId,
    /// The peril that generated the losses.
    pub peril: Peril,
    /// The region of the underlying exposures.
    pub region: Region,
    /// The line of business written.
    pub lob: LineOfBusiness,
}

impl SegmentMeta {
    /// Creates a fully specified segment tag.
    pub fn new(layer: LayerId, peril: Peril, region: Region, lob: LineOfBusiness) -> Self {
        Self {
            layer,
            peril,
            region,
            lob,
        }
    }

    /// The segment's value along one dimension — one group-key component.
    pub fn value(&self, dim: Dimension) -> DimValue {
        match dim {
            Dimension::Layer => DimValue::Layer(self.layer),
            Dimension::Peril => DimValue::Peril(self.peril),
            Dimension::Region => DimValue::Region(self.region),
            Dimension::Lob => DimValue::Lob(self.lob),
        }
    }
}

impl std::fmt::Display for SegmentMeta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}",
            self.layer, self.peril, self.region, self.lob
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lob_codes_unique() {
        let codes: std::collections::BTreeSet<_> =
            LineOfBusiness::ALL.iter().map(|l| l.code()).collect();
        assert_eq!(codes.len(), LineOfBusiness::ALL.len());
    }

    #[test]
    fn occupancy_mapping_covers_all() {
        for occ in Occupancy::ALL {
            let _ = LineOfBusiness::from(occ);
        }
    }

    #[test]
    fn meta_display_is_compact() {
        let meta = SegmentMeta::new(
            LayerId(3),
            Peril::Hurricane,
            Region::Europe,
            LineOfBusiness::Property,
        );
        assert_eq!(meta.to_string(), "L3/HU/EUR/PROP");
    }

    #[test]
    fn serde_round_trip() {
        let meta = SegmentMeta::new(
            LayerId(1),
            Peril::Flood,
            Region::Japan,
            LineOfBusiness::Marine,
        );
        let json = serde_json::to_string(&meta).unwrap();
        assert_eq!(serde_json::from_str::<SegmentMeta>(&json).unwrap(), meta);
    }
}
