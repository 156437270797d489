//! The fiber rules, checked where they run. A `FiberCell` borrow that is
//! open at a point that may yield fails there, whether or not another
//! fiber borrows the cell before this one resumes. Two fiber-lock classes
//! taken in opposite orders fail at the second order's acquire, whether
//! or not this schedule deadlocks. Every failure names its sites.

use std::cell::Cell;
use std::rc::Rc;

use treaty_sched::{CorePool, FiberMutex};
use treaty_sim::runtime::{join, sleep, spawn, Sim, SimError};
use treaty_sim::FiberCell;

/// Runs `body` as a simulation's root fiber and returns the message of
/// the panic that fails it.
fn fiber_panic(body: impl FnOnce() + 'static) -> String {
    match Sim::new().run(body) {
        Err(SimError::FiberPanic(msg)) => msg,
        other => panic!("expected a fiber panic, got {other:?}"),
    }
}

/// How a panic names a site on `line` of this file.
fn site(line: &Cell<u32>) -> String {
    format!("{}:{}:", file!(), line.get())
}

/// A borrow held across a CPU charge: the shape of a MemTable cursor that
/// collected its entries under the index borrow and charged before it let
/// go. It fails at the charge even when the charge is zero and so would
/// not yield this time.
#[test]
fn a_borrow_held_across_a_charge_fails_naming_its_site() {
    for ns in [300, 0] {
        let line = Rc::new(Cell::new(0));
        let l = Rc::clone(&line);
        let msg = fiber_panic(move || {
            let index = FiberCell::new(vec![1u64, 2, 3]);
            let cores = CorePool::new(1);
            l.set(line!() + 1);
            let guard = index.borrow();
            let entries: Vec<u64> = guard.iter().copied().collect();
            cores.charge(ns * entries.len() as u64);
            drop(guard);
        });
        assert!(msg.contains(&format!("taken at {}", site(&line))), "{msg}");
        assert!(msg.contains("held across a yield point"), "{msg}");
    }
}

/// Stands in for a MemTable whose point read charges.
struct Table;

impl Table {
    fn get(&self, key: u64) -> Option<u64> {
        sleep(10);
        Some(key)
    }
}

/// An `if let` keeps its scrutinee's temporaries alive to the end of its
/// body, so the borrow that cloned a handle out is still open when a call
/// on the clone yields. Binding the clone first ends the borrow at the
/// `;`.
#[test]
fn a_scrutinee_borrow_across_a_yielding_call_fails_naming_its_site() {
    let line = Rc::new(Cell::new(0));
    let l = Rc::clone(&line);
    let msg = fiber_panic(move || {
        let mem = FiberCell::new(Rc::new(Table));
        l.set(line!() + 1);
        if let Some(v) = mem.borrow().clone().get(7) {
            assert_eq!(v, 7);
        }
        drop(mem);
    });
    assert!(msg.contains(&format!("taken at {}", site(&line))), "{msg}");

    Sim::new()
        .run(|| {
            let mem = FiberCell::new(Rc::new(Table));
            let table = mem.borrow().clone();
            if let Some(v) = table.get(7) {
                assert_eq!(v, 7);
            }
        })
        .unwrap();
}

/// A free fiber lock does not park, but under another schedule it would:
/// a borrow open at its acquire fails all the same.
#[test]
fn a_borrow_at_an_uncontended_lock_fails_naming_its_site() {
    let line = Rc::new(Cell::new(0));
    let l = Rc::clone(&line);
    let msg = fiber_panic(move || {
        let state = FiberCell::new(0u64);
        let lock = FiberMutex::new("test.lock");
        l.set(line!() + 1);
        let mut s = state.borrow_mut();
        let guard = lock.lock();
        *s += 1;
        drop(guard);
    });
    assert!(msg.contains(&format!("taken at {}", site(&line))), "{msg}");
}

/// A fiber lock is not a borrow: being held across yields is its job.
#[test]
fn a_fiber_lock_held_across_a_sleep_passes() {
    let report = Sim::new()
        .run(|| {
            let lock = Rc::new(FiberMutex::new("test.lock"));
            let state = Rc::new(FiberCell::new(0u64));
            let fibers: Vec<_> = (0..3)
                .map(|_| {
                    let (lock, state) = (Rc::clone(&lock), Rc::clone(&state));
                    spawn(move || {
                        let _held = lock.lock();
                        let seen = *state.borrow();
                        sleep(10);
                        *state.borrow_mut() = seen + 1;
                    })
                })
                .collect();
            fibers.into_iter().for_each(join);
            assert_eq!(*state.borrow(), 3);
        })
        .unwrap();
    assert_eq!(report.virtual_ns, 30);
}

/// One fiber takes the commit lock and then the maintenance lock; later,
/// with the first long finished, another takes them in the opposite
/// order. This schedule never deadlocks, another could: the second order
/// fails at its acquire, naming that acquire, the lock it holds, and
/// where the first order was taken.
#[test]
fn opposite_lock_orders_in_one_sim_fail_naming_both_sites() {
    let lines: Rc<[Cell<u32>; 3]> = Rc::default();
    let l = Rc::clone(&lines);
    let msg = fiber_panic(move || {
        let commits = Rc::new(FiberMutex::new("store.commit_lock"));
        let maintenance = Rc::new(FiberMutex::new("store.maintenance_lock"));
        let (c, m, first) = (Rc::clone(&commits), Rc::clone(&maintenance), Rc::clone(&l));
        join(spawn(move || {
            let a = c.lock();
            first[0].set(line!() + 1);
            let b = m.lock();
            drop((b, a));
        }));
        sleep(10);
        join(spawn(move || {
            l[1].set(line!() + 1);
            let b = maintenance.lock();
            l[2].set(line!() + 1);
            let a = commits.lock();
            drop((a, b));
        }));
    });
    assert!(msg.contains("fiber lock order cycle"), "{msg}");
    let [first, held, taken] = &*lines;
    for (what, line) in [
        ("`store.commit_lock` taken at", taken),
        ("holding `store.maintenance_lock`, taken at", held),
        ("`store.commit_lock` → `store.maintenance_lock` at", first),
    ] {
        let named = format!("{what} {}", site(line));
        assert!(msg.contains(&named), "{named} missing from: {msg}");
    }
}

/// The same inversion at once: each fiber holds one lock and waits for
/// the other's. Without the order check the simulation ends in
/// `SimError::Deadlock`; with it, the second acquire panics before it
/// parks.
#[test]
fn a_lock_order_inversion_panics_instead_of_deadlocking() {
    let msg = fiber_panic(|| {
        let a = Rc::new(FiberMutex::new("test.a"));
        let b = Rc::new(FiberMutex::new("test.b"));
        let (a2, b2) = (Rc::clone(&a), Rc::clone(&b));
        let one = spawn(move || {
            let _a = a2.lock();
            sleep(10);
            let _b = b2.lock();
        });
        let two = spawn(move || {
            let _b = b.lock();
            sleep(10);
            let _a = a.lock();
        });
        join(one);
        join(two);
    });
    assert!(msg.contains("fiber lock order cycle"), "{msg}");
}

/// Two locks of one class nest only by accident of which instances they
/// are; under another schedule (or with the same instance) the inner one
/// waits for the outer one forever.
#[test]
fn a_class_taken_while_held_fails_naming_both_sites() {
    let lines: Rc<[Cell<u32>; 2]> = Rc::default();
    let l = Rc::clone(&lines);
    let msg = fiber_panic(move || {
        let (one, two) = (FiberMutex::new("test.log"), FiberMutex::new("test.log"));
        l[0].set(line!() + 1);
        let outer = one.lock();
        l[1].set(line!() + 1);
        let inner = two.lock();
        drop((inner, outer));
    });
    let [outer, inner] = &*lines;
    for named in [
        format!("`test.log` taken at {}", site(inner)),
        format!("while this fiber holds it, taken at {}", site(outer)),
    ] {
        assert!(msg.contains(&named), "{named} missing from: {msg}");
    }
}

/// The lock-order graph belongs to one simulation: the opposite order in
/// the next one is no cycle.
#[test]
fn each_sim_keeps_its_own_lock_order() {
    for reversed in [false, true] {
        Sim::new()
            .run(move || {
                let (a, b) = (FiberMutex::new("test.a"), FiberMutex::new("test.b"));
                let (first, second) = if reversed { (&b, &a) } else { (&a, &b) };
                let outer = first.lock();
                let inner = second.lock();
                drop((inner, outer));
            })
            .unwrap();
    }
}
