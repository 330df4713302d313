//! The Section 6.2 cost comparison: buying and powering the ten-phone
//! cloudlet versus renting a c5.9xlarge for the same deployment length.

use junkyard_carbon::units::{TimeSpan, Watts};
use junkyard_devices::catalog::{self, C5Size};

use crate::deployments::FAN_POWER;
use crate::report::Table;

/// Default California retail electricity price used by the study, USD/kWh.
pub const CALIFORNIA_ELECTRICITY_USD_PER_KWH: f64 = 0.24;

/// Cost model of one deployment option.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentCost {
    label: String,
    upfront_usd: f64,
    hourly_usd: f64,
    power: Watts,
    electricity_usd_per_kwh: f64,
}

impl DeploymentCost {
    /// Creates a cost model.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        upfront_usd: f64,
        hourly_usd: f64,
        power: Watts,
        electricity_usd_per_kwh: f64,
    ) -> Self {
        Self {
            label: label.into(),
            upfront_usd,
            hourly_usd,
            power,
            electricity_usd_per_kwh,
        }
    }

    /// The ten-phone cloudlet: phones bought second-hand (~$70 each in the
    /// paper), powered at ~1.7 W per phone plus a 4 W fan, paying California
    /// electricity prices.
    #[must_use]
    pub fn phone_cloudlet() -> Self {
        let per_phone = catalog::pixel_3a()
            .purchase_cost_usd()
            .unwrap_or(70.0)
            .max(70.0);
        Self::new(
            "Junkyard cloudlet (10x Pixel 3A)",
            per_phone * 10.0 + 60.0, // phones plus the fan and charging hardware
            0.0,
            Watts::new(1.7 * 10.0 + FAN_POWER.value()),
            CALIFORNIA_ELECTRICITY_USD_PER_KWH,
        )
    }

    /// A rented c5.9xlarge (electricity is included in the hourly price).
    #[must_use]
    pub fn c5_9xlarge() -> Self {
        let c5 = catalog::c5_instance(C5Size::XLarge9);
        Self::new(
            c5.name(),
            0.0,
            c5.hourly_cost_usd().unwrap_or(1.53),
            Watts::ZERO,
            0.0,
        )
    }

    /// Display label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Total cost of ownership over `lifetime`.
    #[must_use]
    pub fn total_over(&self, lifetime: TimeSpan) -> f64 {
        let hours = lifetime.hours();
        let energy_kwh = self.power.value() * hours / 1_000.0;
        self.upfront_usd + self.hourly_usd * hours + energy_kwh * self.electricity_usd_per_kwh
    }
}

/// The Section 6.2 comparison table over a three-year deployment.
#[must_use]
pub fn cost_table(lifetime: TimeSpan) -> Table {
    let mut table = Table::new(
        format!("Deployment cost over {:.1} years", lifetime.years()),
        vec!["option".into(), "upfront USD".into(), "total USD".into()],
    );
    for option in [
        DeploymentCost::phone_cloudlet(),
        DeploymentCost::c5_9xlarge(),
    ] {
        table.push_row(vec![
            option.label().to_owned(),
            format!("{:.2}", option.total_over(TimeSpan::ZERO)),
            format!("{:.2}", option.total_over(lifetime)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phone_cloudlet_costs_about_a_thousand_dollars_over_three_years() {
        // Paper: $1,027.60 for the cloudlet vs $40,404 for the c5.9xlarge.
        let three_years = TimeSpan::from_years(3.0);
        let phones = DeploymentCost::phone_cloudlet().total_over(three_years);
        let c5 = DeploymentCost::c5_9xlarge().total_over(three_years);
        assert!((800.0..=1_300.0).contains(&phones), "phones ${phones:.0}");
        assert!((38_000.0..=42_000.0).contains(&c5), "c5 ${c5:.0}");
        assert!(c5 / phones > 30.0);
    }

    #[test]
    fn upfront_versus_running_split() {
        let phones = DeploymentCost::phone_cloudlet();
        assert!(phones.total_over(TimeSpan::ZERO) >= 700.0);
        let c5 = DeploymentCost::c5_9xlarge();
        assert_eq!(c5.total_over(TimeSpan::ZERO), 0.0);
        // Cloud costs scale linearly with time.
        let one = c5.total_over(TimeSpan::from_years(1.0));
        let two = c5.total_over(TimeSpan::from_years(2.0));
        assert!((two / one - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders_both_rows() {
        let table = cost_table(TimeSpan::from_years(3.0));
        assert_eq!(table.rows().len(), 2);
        assert!(table.to_csv().contains("c5.9xlarge"));
    }
}
