//! TPC-C over a key-value schema.
//!
//! All five transaction profiles with the standard mix (NewOrder 45 %,
//! Payment 43 %, OrderStatus 4 %, Delivery 4 %, StockLevel 4 %), scaled
//! down in rows-per-table (documented on [`TpccConfig`]) but not in
//! structure: the contention pattern the paper leans on — Payment's
//! warehouse-row hotspot and NewOrder's district `next_o_id` counter — is
//! preserved exactly.
//!
//! Rows are serde-encoded structs under prefixed keys:
//!
//! ```text
//! w:{w}                warehouse        d:{w}:{d}            district
//! c:{w}:{d}:{c}        customer         i:{i}                item
//! s:{w}:{i}            stock            o:{w}:{d}:{o}        order
//! ol:{w}:{d}:{o}:{n}   order line
//! ```

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::KvTxn;

/// TPC-C sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TpccConfig {
    /// Number of warehouses (the paper runs 10 and 100).
    pub warehouses: u32,
    /// Districts per warehouse (spec: 10).
    pub districts_per_warehouse: u32,
    /// Customers per district (spec: 3000; scaled down to keep load times
    /// reasonable — contention is per-row, so the hotspots are unchanged).
    pub customers_per_district: u32,
    /// Items in the catalogue (spec: 100_000; scaled down likewise).
    pub items: u32,
}

impl TpccConfig {
    /// The paper's 10-warehouse configuration (scaled rows).
    pub fn paper_10w() -> Self {
        TpccConfig {
            warehouses: 10,
            districts_per_warehouse: 10,
            customers_per_district: 30,
            items: 200,
        }
    }

    /// The paper's 100-warehouse configuration (scaled rows).
    pub fn paper_100w() -> Self {
        TpccConfig {
            warehouses: 100,
            ..Self::paper_10w()
        }
    }

    /// A tiny config for tests.
    pub fn tiny() -> Self {
        TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 2,
            customers_per_district: 5,
            items: 20,
        }
    }
}

// ---- row types --------------------------------------------------------------

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Warehouse {
    ytd: i64,
    name: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct District {
    ytd: i64,
    next_o_id: u32,
    /// Oldest undelivered order (Delivery's queue pointer).
    next_deliv_o_id: u32,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Customer {
    balance: i64,
    ytd_payment: i64,
    payment_cnt: u32,
    delivery_cnt: u32,
    last_order: u32,
    data: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Item {
    price: i64,
    name: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Stock {
    quantity: i32,
    ytd: i64,
    order_cnt: u32,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Order {
    c_id: u32,
    ol_cnt: u32,
    carrier_id: Option<u32>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct OrderLine {
    i_id: u32,
    qty: u32,
    amount: i64,
}

// ---- keys ---------------------------------------------------------------------

fn k_warehouse(w: u32) -> Vec<u8> {
    format!("w:{w}").into_bytes()
}
fn k_district(w: u32, d: u32) -> Vec<u8> {
    format!("d:{w}:{d}").into_bytes()
}
fn k_customer(w: u32, d: u32, c: u32) -> Vec<u8> {
    format!("c:{w}:{d}:{c}").into_bytes()
}
fn k_item(i: u32) -> Vec<u8> {
    format!("i:{i}").into_bytes()
}
fn k_stock(w: u32, i: u32) -> Vec<u8> {
    format!("s:{w}:{i}").into_bytes()
}
fn k_order(w: u32, d: u32, o: u32) -> Vec<u8> {
    format!("o:{w}:{d}:{o}").into_bytes()
}
fn k_order_line(w: u32, d: u32, o: u32, n: u32) -> Vec<u8> {
    format!("ol:{w}:{d}:{o}:{n}").into_bytes()
}

fn enc<T: Serialize>(v: &T) -> Vec<u8> {
    serde_json::to_vec(v).expect("row serializes")
}

fn dec<T: for<'de> Deserialize<'de>>(b: &[u8]) -> Result<T, String> {
    serde_json::from_slice(b).map_err(|e| format!("row decode: {e}"))
}

fn read_row<T: for<'de> Deserialize<'de>>(txn: &mut impl KvTxn, key: &[u8]) -> Result<T, String> {
    match txn.get(key)? {
        Some(b) => dec(&b),
        None => Err(format!("missing row {:?}", String::from_utf8_lossy(key))),
    }
}

// ---- transactions ---------------------------------------------------------------

/// One generated TPC-C transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TpccTxn {
    /// ~45 %: order `items` for customer `(w, d, c)`.
    NewOrder {
        /// Home warehouse.
        w: u32,
        /// District.
        d: u32,
        /// Customer.
        c: u32,
        /// `(item, supply warehouse, quantity)` triplets.
        items: Vec<(u32, u32, u32)>,
    },
    /// ~43 %: payment by customer `(w, d, c)` of `amount`.
    Payment {
        /// Home warehouse.
        w: u32,
        /// District.
        d: u32,
        /// Customer.
        c: u32,
        /// Cents.
        amount: i64,
    },
    /// ~4 %: read a customer's last order.
    OrderStatus {
        /// Warehouse.
        w: u32,
        /// District.
        d: u32,
        /// Customer.
        c: u32,
    },
    /// ~4 %: deliver the oldest undelivered order of one district.
    Delivery {
        /// Warehouse.
        w: u32,
        /// District.
        d: u32,
        /// Carrier.
        carrier: u32,
    },
    /// ~4 %: count low-stock items among a district's recent orders.
    StockLevel {
        /// Warehouse.
        w: u32,
        /// District.
        d: u32,
        /// Threshold.
        threshold: i32,
    },
}

/// Deterministic TPC-C transaction stream.
#[derive(Debug, Clone)]
pub struct TpccGenerator {
    cfg: TpccConfig,
    rng: ChaCha8Rng,
}

impl TpccGenerator {
    /// Creates a generator; distinct seeds give independent terminals.
    pub fn new(cfg: TpccConfig, seed: u64) -> Self {
        TpccGenerator {
            cfg,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TpccConfig {
        &self.cfg
    }

    /// The initial database: every row of every table.
    pub fn initial_rows(cfg: &TpccConfig) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut rows = Vec::new();
        for i in 0..cfg.items {
            rows.push((
                k_item(i),
                enc(&Item {
                    price: 100 + (i as i64 * 7) % 9900,
                    name: format!("item-{i}"),
                }),
            ));
        }
        for w in 0..cfg.warehouses {
            rows.push((
                k_warehouse(w),
                enc(&Warehouse {
                    ytd: 0,
                    name: format!("wh-{w}"),
                }),
            ));
            for i in 0..cfg.items {
                rows.push((
                    k_stock(w, i),
                    enc(&Stock {
                        quantity: 50,
                        ytd: 0,
                        order_cnt: 0,
                    }),
                ));
            }
            for d in 0..cfg.districts_per_warehouse {
                rows.push((
                    k_district(w, d),
                    enc(&District {
                        ytd: 0,
                        next_o_id: 1,
                        next_deliv_o_id: 1,
                    }),
                ));
                for c in 0..cfg.customers_per_district {
                    rows.push((
                        k_customer(w, d, c),
                        enc(&Customer {
                            balance: -1000,
                            ytd_payment: 1000,
                            payment_cnt: 1,
                            delivery_cnt: 0,
                            last_order: 0,
                            data: "x".repeat(100),
                        }),
                    ));
                }
            }
        }
        rows
    }

    /// Generates the next transaction with the standard mix.
    pub fn next_txn(&mut self) -> TpccTxn {
        let cfg = self.cfg;
        let w = self.rng.gen_range(0..cfg.warehouses);
        let d = self.rng.gen_range(0..cfg.districts_per_warehouse);
        let c = self.rng.gen_range(0..cfg.customers_per_district);
        match self.rng.gen_range(0..100u32) {
            0..=44 => {
                let n = self.rng.gen_range(5..=15);
                let items = (0..n)
                    .map(|_| {
                        let i = self.rng.gen_range(0..cfg.items);
                        // 1% remote warehouse, per spec (drives distribution).
                        let supply = if cfg.warehouses > 1 && self.rng.gen_range(0..100) == 0 {
                            (w + 1 + self.rng.gen_range(0..cfg.warehouses - 1)) % cfg.warehouses
                        } else {
                            w
                        };
                        (i, supply, self.rng.gen_range(1..=10))
                    })
                    .collect();
                TpccTxn::NewOrder { w, d, c, items }
            }
            45..=87 => TpccTxn::Payment {
                w,
                d,
                c,
                amount: self.rng.gen_range(100..500_000),
            },
            88..=91 => TpccTxn::OrderStatus { w, d, c },
            92..=95 => TpccTxn::Delivery {
                w,
                d,
                carrier: self.rng.gen_range(1..=10),
            },
            _ => TpccTxn::StockLevel {
                w,
                d,
                threshold: self.rng.gen_range(10..=20),
            },
        }
    }

    /// Executes `txn` against the KV interface. Business logic only —
    /// begin/commit is the caller's job.
    ///
    /// # Errors
    ///
    /// Propagates operation failures (aborts).
    pub fn execute(txn_desc: &TpccTxn, api: &mut impl KvTxn) -> Result<(), String> {
        match txn_desc {
            TpccTxn::NewOrder { w, d, c, items } => {
                let _wh: Warehouse = read_row(api, &k_warehouse(*w))?;
                let mut district: District = read_row(api, &k_district(*w, *d))?;
                let o_id = district.next_o_id;
                district.next_o_id += 1;
                api.put(&k_district(*w, *d), &enc(&district))?;
                let mut customer: Customer = read_row(api, &k_customer(*w, *d, *c))?;
                customer.last_order = o_id;
                api.put(&k_customer(*w, *d, *c), &enc(&customer))?;
                api.put(
                    &k_order(*w, *d, o_id),
                    &enc(&Order {
                        c_id: *c,
                        ol_cnt: items.len() as u32,
                        carrier_id: None,
                    }),
                )?;
                for (n, (i, supply, qty)) in items.iter().enumerate() {
                    let item: Item = read_row(api, &k_item(*i))?;
                    let mut stock: Stock = read_row(api, &k_stock(*supply, *i))?;
                    stock.quantity -= *qty as i32;
                    if stock.quantity < 10 {
                        stock.quantity += 91;
                    }
                    stock.ytd += *qty as i64;
                    stock.order_cnt += 1;
                    api.put(&k_stock(*supply, *i), &enc(&stock))?;
                    api.put(
                        &k_order_line(*w, *d, o_id, n as u32),
                        &enc(&OrderLine {
                            i_id: *i,
                            qty: *qty,
                            amount: item.price * *qty as i64,
                        }),
                    )?;
                }
                Ok(())
            }
            TpccTxn::Payment { w, d, c, amount } => {
                let mut wh: Warehouse = read_row(api, &k_warehouse(*w))?;
                wh.ytd += amount;
                api.put(&k_warehouse(*w), &enc(&wh))?;
                let mut district: District = read_row(api, &k_district(*w, *d))?;
                district.ytd += amount;
                api.put(&k_district(*w, *d), &enc(&district))?;
                let mut customer: Customer = read_row(api, &k_customer(*w, *d, *c))?;
                customer.balance -= amount;
                customer.ytd_payment += amount;
                customer.payment_cnt += 1;
                api.put(&k_customer(*w, *d, *c), &enc(&customer))?;
                Ok(())
            }
            TpccTxn::OrderStatus { w, d, c } => {
                let customer: Customer = read_row(api, &k_customer(*w, *d, *c))?;
                if customer.last_order > 0 {
                    if let Some(bytes) = api.get(&k_order(*w, *d, customer.last_order))? {
                        let order: Order = dec(&bytes)?;
                        for n in 0..order.ol_cnt {
                            let _ = api.get(&k_order_line(*w, *d, customer.last_order, n))?;
                        }
                    }
                }
                Ok(())
            }
            TpccTxn::Delivery { w, d, carrier } => {
                let mut district: District = read_row(api, &k_district(*w, *d))?;
                if district.next_deliv_o_id >= district.next_o_id {
                    return Ok(()); // nothing to deliver
                }
                let o_id = district.next_deliv_o_id;
                district.next_deliv_o_id += 1;
                api.put(&k_district(*w, *d), &enc(&district))?;
                if let Some(bytes) = api.get(&k_order(*w, *d, o_id))? {
                    let mut order: Order = dec(&bytes)?;
                    order.carrier_id = Some(*carrier);
                    let mut total = 0i64;
                    for n in 0..order.ol_cnt {
                        if let Some(olb) = api.get(&k_order_line(*w, *d, o_id, n))? {
                            let ol: OrderLine = dec(&olb)?;
                            total += ol.amount;
                        }
                    }
                    api.put(&k_order(*w, *d, o_id), &enc(&order))?;
                    let mut customer: Customer = read_row(api, &k_customer(*w, *d, order.c_id))?;
                    customer.balance += total;
                    customer.delivery_cnt += 1;
                    api.put(&k_customer(*w, *d, order.c_id), &enc(&customer))?;
                }
                Ok(())
            }
            TpccTxn::StockLevel { w, d, threshold } => {
                let district: District = read_row(api, &k_district(*w, *d))?;
                // Inspect the stock of items in the last up-to-5 orders.
                let from = district.next_o_id.saturating_sub(5).max(1);
                let mut low = 0;
                for o in from..district.next_o_id {
                    if let Some(ob) = api.get(&k_order(*w, *d, o))? {
                        let order: Order = dec(&ob)?;
                        for n in 0..order.ol_cnt.min(5) {
                            if let Some(olb) = api.get(&k_order_line(*w, *d, o, n))? {
                                let ol: OrderLine = dec(&olb)?;
                                if let Some(sb) = api.get(&k_stock(*w, ol.i_id))? {
                                    let stock: Stock = dec(&sb)?;
                                    if stock.quantity < *threshold {
                                        low += 1;
                                    }
                                }
                            }
                        }
                    }
                }
                let _ = low;
                Ok(())
            }
        }
    }

    /// Generates and executes the next transaction.
    ///
    /// # Errors
    ///
    /// Propagates operation failures (aborts).
    pub fn run_txn(&mut self, api: &mut impl KvTxn) -> Result<TpccTxn, String> {
        let txn = self.next_txn();
        Self::execute(&txn, api)?;
        Ok(txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Serial in-memory KV for validating the business logic.
    #[derive(Default)]
    struct MemKv {
        data: HashMap<Vec<u8>, Vec<u8>>,
    }
    impl KvTxn for MemKv {
        fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
            Ok(self.data.get(key).cloned())
        }
        fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), String> {
            self.data.insert(key.to_vec(), value.to_vec());
            Ok(())
        }
    }

    fn loaded(cfg: &TpccConfig) -> MemKv {
        let mut kv = MemKv::default();
        for (k, v) in TpccGenerator::initial_rows(cfg) {
            kv.data.insert(k, v);
        }
        kv
    }

    #[test]
    fn initial_rows_cover_all_tables() {
        let cfg = TpccConfig::tiny();
        let kv = loaded(&cfg);
        assert!(kv.data.contains_key(&k_warehouse(0)));
        assert!(kv.data.contains_key(&k_district(1, 1)));
        assert!(kv.data.contains_key(&k_customer(0, 0, 4)));
        assert!(kv.data.contains_key(&k_item(19)));
        assert!(kv.data.contains_key(&k_stock(1, 19)));
        let expected = cfg.items
            + cfg.warehouses
                * (1 + cfg.items + cfg.districts_per_warehouse * (1 + cfg.customers_per_district));
        assert_eq!(kv.data.len() as u32, expected);
    }

    #[test]
    fn mix_is_roughly_standard() {
        let mut g = TpccGenerator::new(TpccConfig::tiny(), 1);
        let mut counts = [0u32; 5];
        for _ in 0..2000 {
            match g.next_txn() {
                TpccTxn::NewOrder { .. } => counts[0] += 1,
                TpccTxn::Payment { .. } => counts[1] += 1,
                TpccTxn::OrderStatus { .. } => counts[2] += 1,
                TpccTxn::Delivery { .. } => counts[3] += 1,
                TpccTxn::StockLevel { .. } => counts[4] += 1,
            }
        }
        assert!(
            (40..=50).contains(&(counts[0] / 20)),
            "new-order {counts:?}"
        );
        assert!((38..=48).contains(&(counts[1] / 20)), "payment {counts:?}");
        for c in &counts[2..] {
            assert!((1..=8).contains(&(c / 20)), "{counts:?}");
        }
    }

    #[test]
    fn thousand_txns_keep_database_consistent() {
        let cfg = TpccConfig::tiny();
        let mut kv = loaded(&cfg);
        let mut g = TpccGenerator::new(cfg, 2);
        let mut payments: i64 = 0;
        for _ in 0..1000 {
            if let TpccTxn::Payment { amount, .. } = g.run_txn(&mut kv).unwrap() {
                payments += amount;
            }
        }
        // Sum of warehouse YTDs equals the sum of processed payments.
        let mut ytd = 0;
        for w in 0..cfg.warehouses {
            let wh: Warehouse = dec(&kv.data[&k_warehouse(w)]).unwrap();
            ytd += wh.ytd;
        }
        assert_eq!(ytd, payments, "payment money leaked");
        // Orders exist and district counters moved.
        let d: District = dec(&kv.data[&k_district(0, 0)]).unwrap();
        assert!(d.next_o_id > 1);
        assert!(d.next_deliv_o_id <= d.next_o_id);
    }

    #[test]
    fn new_order_creates_order_and_lines() {
        let cfg = TpccConfig::tiny();
        let mut kv = loaded(&cfg);
        let txn = TpccTxn::NewOrder {
            w: 0,
            d: 0,
            c: 0,
            items: vec![(1, 0, 2), (2, 0, 3)],
        };
        TpccGenerator::execute(&txn, &mut kv).unwrap();
        let d: District = dec(&kv.data[&k_district(0, 0)]).unwrap();
        assert_eq!(d.next_o_id, 2);
        let o: Order = dec(&kv.data[&k_order(0, 0, 1)]).unwrap();
        assert_eq!(o.ol_cnt, 2);
        assert!(kv.data.contains_key(&k_order_line(0, 0, 1, 1)));
        let s: Stock = dec(&kv.data[&k_stock(0, 1)]).unwrap();
        assert_eq!(s.quantity, 48);
    }

    #[test]
    fn delivery_pays_customer() {
        let cfg = TpccConfig::tiny();
        let mut kv = loaded(&cfg);
        let order = TpccTxn::NewOrder {
            w: 0,
            d: 0,
            c: 3,
            items: vec![(1, 0, 2)],
        };
        TpccGenerator::execute(&order, &mut kv).unwrap();
        let before: Customer = dec(&kv.data[&k_customer(0, 0, 3)]).unwrap();
        let deliver = TpccTxn::Delivery {
            w: 0,
            d: 0,
            carrier: 4,
        };
        TpccGenerator::execute(&deliver, &mut kv).unwrap();
        let after: Customer = dec(&kv.data[&k_customer(0, 0, 3)]).unwrap();
        assert!(after.balance > before.balance);
        assert_eq!(after.delivery_cnt, before.delivery_cnt + 1);
        let o: Order = dec(&kv.data[&k_order(0, 0, 1)]).unwrap();
        assert_eq!(o.carrier_id, Some(4));
    }

    #[test]
    fn delivery_on_empty_district_is_noop() {
        let cfg = TpccConfig::tiny();
        let mut kv = loaded(&cfg);
        TpccGenerator::execute(
            &TpccTxn::Delivery {
                w: 1,
                d: 1,
                carrier: 1,
            },
            &mut kv,
        )
        .unwrap();
        let d: District = dec(&kv.data[&k_district(1, 1)]).unwrap();
        assert_eq!(d.next_deliv_o_id, 1);
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = TpccGenerator::new(TpccConfig::paper_10w(), 9);
        let mut b = TpccGenerator::new(TpccConfig::paper_10w(), 9);
        for _ in 0..20 {
            assert_eq!(a.next_txn(), b.next_txn());
        }
    }
}
