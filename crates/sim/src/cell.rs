//! [`FiberCell`]: a `RefCell` whose borrows the fiber runtime can see.
//!
//! A simulation's shared state sits in cells on one OS thread, and a
//! fiber runs atomically only between two yield points. A borrow that is
//! still open when its fiber yields is a bug whether or not another fiber
//! happens to borrow the same cell before it resumes. A plain `RefCell`
//! only fails in the second case, at the second borrow. A `FiberCell`
//! fails in the first, at the yield: every guard counts into the running
//! context's open-borrow count, and every point that may yield calls
//! [`assert_no_borrow`], which panics naming the site of the borrow.
//!
//! The count is a thread-local. No fiber can yield with a borrow open, so
//! the count is zero at every switch between fibers, and one count serves
//! every fiber of the thread's simulation.

use std::cell::{Cell, Ref, RefCell, RefMut};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::Location;

type Site = &'static Location<'static>;

thread_local! {
    /// Open borrows of the running context.
    static OPEN: Cell<u32> = const { Cell::new(0) };
    /// Where the first borrow opened since `OPEN` was last zero was taken.
    static FIRST: Cell<Option<Site>> = const { Cell::new(None) };
}

/// Panics if a [`FiberCell`] borrow is open in the running context,
/// naming where it was taken; the panic's own location is the caller's.
/// Every point that may yield calls it. Does nothing while the thread
/// unwinds, so a guard that is dropped late cannot turn one panic into
/// an abort.
#[inline]
#[track_caller]
pub fn assert_no_borrow() {
    if OPEN.with(Cell::get) != 0 && !std::thread::panicking() {
        borrow_at_yield();
    }
}

#[cold]
#[track_caller]
fn borrow_at_yield() -> ! {
    let site = FIRST.with(Cell::get).expect("an open borrow has a site");
    panic!(
        "a FiberCell borrow taken at {site} is held across a yield point ({} open)",
        OPEN.with(Cell::get)
    );
}

/// One open borrow, counted while it lives.
struct Counted;

impl Counted {
    #[inline]
    fn open(site: Site) -> Counted {
        OPEN.with(|o| {
            let count = o.get();
            if count == 0 {
                FIRST.with(|f| f.set(Some(site)));
            }
            o.set(count + 1);
        });
        Counted
    }
}

impl Drop for Counted {
    #[inline]
    fn drop(&mut self) {
        OPEN.with(|o| o.set(o.get() - 1));
    }
}

/// A `RefCell` whose open borrows must end before their fiber yields.
///
/// Same API as the `RefCell` methods the workspace uses; a conflicting
/// borrow still panics at once, naming its own site.
#[derive(Default)]
pub struct FiberCell<T>(RefCell<T>);

impl<T> FiberCell<T> {
    /// Creates a cell holding `value`.
    pub const fn new(value: T) -> Self {
        FiberCell(RefCell::new(value))
    }

    /// Immutably borrows the value until the guard drops.
    ///
    /// # Panics
    ///
    /// Panics if the value is mutably borrowed.
    #[track_caller]
    pub fn borrow(&self) -> FiberRef<'_, T> {
        let inner = self.0.borrow();
        FiberRef {
            inner,
            _open: Counted::open(Location::caller()),
        }
    }

    /// Mutably borrows the value until the guard drops.
    ///
    /// # Panics
    ///
    /// Panics if the value is borrowed.
    #[track_caller]
    pub fn borrow_mut(&self) -> FiberRefMut<'_, T> {
        let inner = self.0.borrow_mut();
        FiberRefMut {
            inner,
            _open: Counted::open(Location::caller()),
        }
    }

    /// Replaces the value, returning the old one. No borrow stays open.
    ///
    /// # Panics
    ///
    /// Panics if the value is borrowed.
    #[track_caller]
    pub fn replace(&self, value: T) -> T {
        self.0.replace(value)
    }

    /// Mutable access through a unique reference: no borrow is counted.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }

    /// Consumes the cell, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

impl<T: Default> FiberCell<T> {
    /// Takes the value, leaving `T::default()`. No borrow stays open.
    ///
    /// # Panics
    ///
    /// Panics if the value is borrowed.
    #[track_caller]
    pub fn take(&self) -> T {
        self.0.take()
    }
}

impl<T: fmt::Debug> fmt::Debug for FiberCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("FiberCell");
        match self.0.try_borrow() {
            Ok(value) => d.field("value", &value),
            Err(_) => d.field("value", &format_args!("<borrowed>")),
        };
        d.finish()
    }
}

/// An open immutable borrow of a [`FiberCell`].
pub struct FiberRef<'a, T> {
    inner: Ref<'a, T>,
    _open: Counted,
}

impl<T> Deref for FiberRef<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// An open mutable borrow of a [`FiberCell`].
pub struct FiberRefMut<'a, T> {
    inner: RefMut<'a, T>,
    _open: Counted,
}

impl<T> Deref for FiberRefMut<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for FiberRefMut<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{spawn, yield_now, Sim, SimError};
    use std::rc::Rc;

    fn open_count() -> u32 {
        OPEN.with(Cell::get)
    }

    #[test]
    fn guards_count_while_they_live() {
        let cell = FiberCell::new(vec![1u8]);
        {
            let (a, b) = (cell.borrow(), cell.borrow());
            assert_eq!((a.len(), b.len(), open_count()), (1, 1, 2));
        }
        cell.borrow_mut().push(2);
        assert_eq!(cell.replace(Vec::new()), vec![1, 2]);
        assert_eq!((cell.take(), open_count()), (Vec::new(), 0));
        assert_no_borrow();
    }

    #[test]
    fn a_borrow_across_a_yield_fails_at_the_yield_naming_its_site() {
        let site = Rc::new(Cell::new(0));
        let s = Rc::clone(&site);
        let err = Sim::new()
            .run(move || {
                let cell = FiberCell::new(0u64);
                // No other fiber borrows the cell: the yield alone fails.
                spawn(|| {});
                s.set(line!() + 1);
                let guard = cell.borrow();
                yield_now();
                drop(guard);
            })
            .unwrap_err();
        let SimError::FiberPanic(msg) = err else {
            panic!("unexpected error: {err:?}")
        };
        let borrowed = format!("taken at {}:{}:", file!(), site.get());
        assert!(msg.contains(&borrowed), "{msg}");
        assert!(msg.contains("held across a yield point (1 open)"), "{msg}");
    }
}
