//! Statement kernels: the computation behind each statement of a loop nest.
//!
//! The dependence analyser only looks at the array *references* of a
//! statement; the runtime additionally needs the statement's actual
//! computation to execute and verify schedules.  A [`Kernel`] maps a
//! statement id and its loop index values to reads and writes on a
//! [`StoreView`].
//!
//! [`RefKernel`] derives a canonical kernel directly from the references of
//! a [`Program`]: every statement computes
//! `write := f(reads..., indices)` with a fixed non-commutative combiner, so
//! any re-ordering of dependent statement instances changes the final array
//! contents — which is exactly what the schedule-verification tests rely on.

use crate::array::{Footprint, StoreView};
use rcp_loopir::Program;

/// The computation of a program's statements.
pub trait Kernel: Sync {
    /// Executes statement `stmt_id` at the given loop index values against
    /// the store view.
    fn execute(&self, stmt_id: usize, indices: &[i64], store: &mut dyn StoreView);

    /// Widens `footprint` to cover every element that statement `stmt_id`
    /// writes at the given loop index values.
    ///
    /// Every executor path but the race-detecting pool sizes its store
    /// from the footprint of the whole schedule before running it.  On the
    /// trusted pool path
    /// ([`crate::ParallelExecutor`] with race detection off) the workers
    /// share that store, so there the elements a statement writes must
    /// depend on the statement and its indices only, never on values read:
    /// a write outside the reported footprint panics.  The paths writing
    /// through `&mut` grow the store for such a write instead.
    ///
    /// The default runs [`Self::execute`] against the footprint itself,
    /// which records writes and answers reads with initial values, so on
    /// those paths a kernel without an override runs every instance twice,
    /// side effects included.  [`RefKernel`] overrides it to
    /// evaluate its write subscripts only.
    fn footprint(&self, stmt_id: usize, indices: &[i64], footprint: &mut Footprint) {
        self.execute(stmt_id, indices, footprint);
    }
}

/// A kernel defined by a plain function or closure.
pub struct FnKernel<F>(pub F);

impl<F> Kernel for FnKernel<F>
where
    F: Fn(usize, &[i64], &mut dyn StoreView) + Sync,
{
    fn execute(&self, stmt_id: usize, indices: &[i64], store: &mut dyn StoreView) {
        (self.0)(stmt_id, indices, store)
    }
}

/// The canonical kernel derived from a program's array references.
///
/// For every statement, all read references are evaluated, combined with a
/// non-commutative, order-sensitive function of the loop indices, and the
/// result is stored to every write reference.  Statements without writes
/// are no-ops (they still perform their reads).
///
/// The access maps are compiled once into flat coefficient rows in a table
/// indexed by statement id, and subscripts are evaluated into a stack
/// buffer, so executing an instance allocates nothing.
pub struct RefKernel {
    /// Indexed by statement id (`None` for ids no statement carries).
    stmts: Vec<Option<StatementAccesses>>,
}

struct StatementAccesses {
    /// The number of surrounding loops: the length of an index vector.
    depth: usize,
    writes: Vec<Access>,
    reads: Vec<Access>,
}

/// One affine reference `subscript[d] = Σ_r indices[r]·coeffs[d·depth + r]
/// + offset[d]`.
struct Access {
    array: String,
    coeffs: Vec<i64>,
    offset: Vec<i64>,
}

/// Subscripts of up to this rank are evaluated on the stack.
const STACK_RANK: usize = 8;

impl Access {
    fn new(access: &rcp_loopir::AccessMap) -> Self {
        let (depth, rank) = (access.matrix.rows(), access.matrix.cols());
        let coeffs = (0..rank)
            .flat_map(|d| (0..depth).map(move |r| access.matrix[(r, d)]))
            .collect();
        Access {
            array: access.array.clone(),
            coeffs,
            offset: access.offset.clone(),
        }
    }

    /// Calls `f` with the subscript this reference accesses at `indices`.
    #[inline]
    fn with_subscript<R>(&self, indices: &[i64], f: impl FnOnce(&[i64]) -> R) -> R {
        let rank = self.offset.len();
        let eval = |subscript: &mut [i64]| {
            for (d, x) in subscript.iter_mut().enumerate() {
                let row = &self.coeffs[d * indices.len()..(d + 1) * indices.len()];
                let sum: i64 = indices.iter().zip(row).map(|(i, c)| i * c).sum();
                *x = sum + self.offset[d];
            }
        };
        if rank <= STACK_RANK {
            let mut buffer = [0i64; STACK_RANK];
            eval(&mut buffer[..rank]);
            f(&buffer[..rank])
        } else {
            let mut buffer = vec![0i64; rank];
            eval(&mut buffer);
            f(&buffer)
        }
    }
}

impl RefKernel {
    /// Builds the canonical kernel of a program.
    pub fn new(program: &Program) -> Self {
        let mut stmts: Vec<Option<StatementAccesses>> = Vec::new();
        for info in program.statements() {
            let mut writes = Vec::new();
            let mut reads = Vec::new();
            for r in &info.stmt.refs {
                let access = Access::new(&program.loop_access(&info, r));
                if r.is_write() {
                    writes.push(access);
                } else {
                    reads.push(access);
                }
            }
            if stmts.len() <= info.id {
                stmts.resize_with(info.id + 1, || None);
            }
            stmts[info.id] = Some(StatementAccesses {
                depth: info.loop_indices.len(),
                writes,
                reads,
            });
        }
        RefKernel { stmts }
    }

    /// The compiled accesses of a statement, checked against the index
    /// vector it runs at.
    // Panic-hygiene allow: schedules executed against a `RefKernel` are
    // built from the same program, so every statement id is present and
    // every index vector has its statement's depth.
    #[allow(clippy::expect_used)]
    fn statement(&self, stmt_id: usize, indices: &[i64]) -> &StatementAccesses {
        let stmt = self
            .stmts
            .get(stmt_id)
            .and_then(Option::as_ref)
            .expect("unknown statement id");
        assert_eq!(
            indices.len(),
            stmt.depth,
            "vector/matrix dimension mismatch"
        );
        stmt
    }
}

impl Kernel for RefKernel {
    fn execute(&self, stmt_id: usize, indices: &[i64], store: &mut dyn StoreView) {
        let accesses = self.statement(stmt_id, indices);
        // Combine the read values with an order-sensitive function so that
        // any violation of a flow/anti dependence changes the result.
        let mut acc = 0.5;
        for (k, read) in accesses.reads.iter().enumerate() {
            let v = read.with_subscript(indices, |idx| store.read(&read.array, idx));
            acc = acc * 0.75 + v * (1.0 + 0.1 * (k as f64 + 1.0));
        }
        let index_term: f64 = indices
            .iter()
            .enumerate()
            .map(|(k, &x)| (x as f64) * 0.001 * (k as f64 + 1.0))
            .sum();
        let value = acc + index_term + 0.25;
        for write in &accesses.writes {
            write.with_subscript(indices, |idx| store.write(&write.array, idx, value));
        }
    }

    fn footprint(&self, stmt_id: usize, indices: &[i64], footprint: &mut Footprint) {
        for write in &self.statement(stmt_id, indices).writes {
            write.with_subscript(indices, |idx| footprint.include(&write.array, idx));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayStore;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::ArrayRef;

    fn figure2() -> Program {
        Program::new(
            "figure2",
            &[],
            vec![loop_(
                "I",
                c(1),
                c(20),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I") * 2]),
                        ArrayRef::read("a", vec![c(21) - v("I")]),
                    ],
                )],
            )],
        )
    }

    #[test]
    fn ref_kernel_reads_and_writes_the_declared_elements() {
        let p = figure2();
        let kernel = RefKernel::new(&p);
        let mut store = ArrayStore::new();
        // statement at I=6 writes a(12) from a(15)
        store.set("a", &[15], 3.0);
        kernel.execute(0, &[6], &mut store);
        let v = store.get("a", &[12]);
        assert_ne!(
            v,
            ArrayStore::new().get("a", &[12]),
            "a(12) must have been written"
        );
        // changing the read input changes the written value
        let mut store2 = ArrayStore::new();
        store2.set("a", &[15], 4.0);
        kernel.execute(0, &[6], &mut store2);
        assert_ne!(store.get("a", &[12]), store2.get("a", &[12]));
    }

    #[test]
    fn execution_order_matters_for_dependent_instances() {
        // a(2I) = a(21-I): iterations 6 (writes a(12)) and 9 (reads a(12) and
        // writes a(18)... actually reads a(12)) — executing 6 then 9 differs
        // from 9 then 6.
        let p = figure2();
        let kernel = RefKernel::new(&p);
        let mut fwd = ArrayStore::new();
        kernel.execute(0, &[6], &mut fwd);
        kernel.execute(0, &[9], &mut fwd);
        let mut rev = ArrayStore::new();
        kernel.execute(0, &[9], &mut rev);
        kernel.execute(0, &[6], &mut rev);
        assert!(
            !fwd.diff(&rev, 1e-12).is_empty(),
            "order must be observable"
        );
    }

    #[test]
    fn fn_kernel_wraps_closures() {
        let k = FnKernel(|_s: usize, idx: &[i64], store: &mut dyn StoreView| {
            store.write("out", idx, idx[0] as f64 * 2.0);
        });
        let mut store = ArrayStore::new();
        k.execute(0, &[21], &mut store);
        assert_eq!(store.get("out", &[21]), 42.0);
    }
}
