/* Flat split-plane Givens rotation kernels over Bigarray storage.
 *
 * Mat's two float planes are float64/c_layout Bigarray.Array1 values,
 * so Caml_ba_data_val gives a stable off-heap [double *] with no GC
 * interaction: the data never moves, which is what makes the blocking
 * entry points below safe — they drop the OCaml runtime lock around
 * the loop so pool domains overlap compute during large (N >= 128)
 * kernels.  All index and shape validation happens on the OCaml side
 * (Mat.rot_*); these entry points assume in-bounds, distinct m/n.
 *
 * Two shapes cover the four Mat kernels:
 *   pre  — the phase e^{iφ} multiplies plane m *before* the real
 *          rotation (rot_cols_t_dagger with φ ← −φ, rot_rows_t);
 *   post — the real rotation runs first and the phase lands on the
 *          rotated m entry (rot_cols_t, rot_rows_t_dagger with φ ← −φ).
 * Each shape comes in a unit-stride variant (row rotations: two
 * contiguous runs, which the compiler vectorizes) and a strided
 * variant (column rotations: stride = ncols).
 *
 * Each shape also comes in two lock disciplines:
 *   plain (…_nat)      — [@@noalloc], never touches the runtime; the
 *                        small-kernel fast path (entry cost ~a C call);
 *   blocking (…_blk_*) — caml_release_runtime_system around the loop;
 *                        Mat dispatches here above its size threshold.
 * A blocking stub must read every OCaml value (the two Bigarray data
 * pointers) *before* releasing the lock and must not touch the OCaml
 * heap until it reacquires — the loop only ever sees raw doubles.
 *
 * The restrict qualifiers are justified by the OCaml-side m <> n
 * check: the m-run and n-run never overlap.
 */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/threads.h>

static void rot_pre(double *restrict rm, double *restrict qm,
                    double *restrict rn, double *restrict qn,
                    intnat count, intnat stride,
                    double c, double s, double ere, double eim)
{
  for (intnat k = 0; k < count; k++, rm += stride, qm += stride,
                                 rn += stride, qn += stride) {
    double mre = *rm, mim = *qm, nre = *rn, nim = *qn;
    double wre = mre * ere - mim * eim;
    double wim = mre * eim + mim * ere;
    *rm = wre * c - nre * s;
    *qm = wim * c - nim * s;
    *rn = wre * s + nre * c;
    *qn = wim * s + nim * c;
  }
}

static void rot_post(double *restrict rm, double *restrict qm,
                     double *restrict rn, double *restrict qn,
                     intnat count, intnat stride,
                     double c, double s, double ere, double eim)
{
  for (intnat k = 0; k < count; k++, rm += stride, qm += stride,
                                 rn += stride, qn += stride) {
    double mre = *rm, mim = *qm, nre = *rn, nim = *qn;
    double wre = mre * c + nre * s;
    double wim = mim * c + nim * s;
    *rm = wre * ere - wim * eim;
    *qm = wre * eim + wim * ere;
    *rn = nre * c - mre * s;
    *qn = nim * c - mim * s;
  }
}

CAMLprim value bose_rot_pre_nat(value vre, value vim, intnat count,
                                intnat km, intnat kn, intnat stride,
                                double c, double s, double ere, double eim)
{
  double *re = (double *)Caml_ba_data_val(vre);
  double *im = (double *)Caml_ba_data_val(vim);
  if (stride == 1)
    rot_pre(re + km, im + km, re + kn, im + kn, count, 1, c, s, ere, eim);
  else
    rot_pre(re + km, im + km, re + kn, im + kn, count, stride, c, s, ere, eim);
  return Val_unit;
}

CAMLprim value bose_rot_post_nat(value vre, value vim, intnat count,
                                 intnat km, intnat kn, intnat stride,
                                 double c, double s, double ere, double eim)
{
  double *re = (double *)Caml_ba_data_val(vre);
  double *im = (double *)Caml_ba_data_val(vim);
  if (stride == 1)
    rot_post(re + km, im + km, re + kn, im + kn, count, 1, c, s, ere, eim);
  else
    rot_post(re + km, im + km, re + kn, im + kn, count, stride, c, s, ere, eim);
  return Val_unit;
}

CAMLprim value bose_rot_pre_blk_nat(value vre, value vim, intnat count,
                                    intnat km, intnat kn, intnat stride,
                                    double c, double s, double ere, double eim)
{
  double *re = (double *)Caml_ba_data_val(vre);
  double *im = (double *)Caml_ba_data_val(vim);
  caml_release_runtime_system();
  if (stride == 1)
    rot_pre(re + km, im + km, re + kn, im + kn, count, 1, c, s, ere, eim);
  else
    rot_pre(re + km, im + km, re + kn, im + kn, count, stride, c, s, ere, eim);
  caml_acquire_runtime_system();
  return Val_unit;
}

CAMLprim value bose_rot_post_blk_nat(value vre, value vim, intnat count,
                                     intnat km, intnat kn, intnat stride,
                                     double c, double s, double ere, double eim)
{
  double *re = (double *)Caml_ba_data_val(vre);
  double *im = (double *)Caml_ba_data_val(vim);
  caml_release_runtime_system();
  if (stride == 1)
    rot_post(re + km, im + km, re + kn, im + kn, count, 1, c, s, ere, eim);
  else
    rot_post(re + km, im + km, re + kn, im + kn, count, stride, c, s, ere, eim);
  caml_acquire_runtime_system();
  return Val_unit;
}

CAMLprim value bose_rot_pre_byte(value *argv, int argn)
{
  (void)argn;
  return bose_rot_pre_nat(argv[0], argv[1], Long_val(argv[2]),
                          Long_val(argv[3]), Long_val(argv[4]),
                          Long_val(argv[5]), Double_val(argv[6]),
                          Double_val(argv[7]), Double_val(argv[8]),
                          Double_val(argv[9]));
}

CAMLprim value bose_rot_post_byte(value *argv, int argn)
{
  (void)argn;
  return bose_rot_post_nat(argv[0], argv[1], Long_val(argv[2]),
                           Long_val(argv[3]), Long_val(argv[4]),
                           Long_val(argv[5]), Double_val(argv[6]),
                           Double_val(argv[7]), Double_val(argv[8]),
                           Double_val(argv[9]));
}

CAMLprim value bose_rot_pre_blk_byte(value *argv, int argn)
{
  (void)argn;
  return bose_rot_pre_blk_nat(argv[0], argv[1], Long_val(argv[2]),
                              Long_val(argv[3]), Long_val(argv[4]),
                              Long_val(argv[5]), Double_val(argv[6]),
                              Double_val(argv[7]), Double_val(argv[8]),
                              Double_val(argv[9]));
}

CAMLprim value bose_rot_post_blk_byte(value *argv, int argn)
{
  (void)argn;
  return bose_rot_post_blk_nat(argv[0], argv[1], Long_val(argv[2]),
                               Long_val(argv[3]), Long_val(argv[4]),
                               Long_val(argv[5]), Double_val(argv[6]),
                               Double_val(argv[7]), Double_val(argv[8]),
                               Double_val(argv[9]));
}

/* ------------------------------------------------------------------ */
/* Fused multi-rotation sweep kernels (BLAS rotm-style).
 *
 * A packed rotation sequence is a float64 Bigarray holding 8 doubles
 * per rotation: m, n, c, s, ere, eim, bound, pad.  The phase (ere,
 * eim) is stored in *kernel* form — any dagger sign flip happened when
 * the rotation was packed — so one pre body and one post body cover
 * every caller.  [bound] is a per-rotation applicability limit: for
 * the column sweeps a rotation applies to row r iff r < bound (the
 * Clements ?nrows restriction); for the row sweep it is the first
 * column the rotation touches (the Clements ?first restriction).
 *
 * The column sweeps iterate row-outer, four rows at a time: a block of
 * four matrix rows stays resident in L1 while the whole rotation
 * subsequence [rot_lo, rot_hi) streams over it in order, each packed
 * rotation loaded once per block.  Per row, the element updates are
 * exactly the per-rotation kernels above applied in sequence, so the
 * result for a given row never depends on how callers partition the
 * row range, nor on where the four-row blocks fall — the bit-identity
 * contract the parallel elimination engines rely on.
 * The row sweep iterates rotation-outer over a column slice; per
 * column the update order is likewise the rotation order.
 *
 * Per-element arithmetic is kept textually identical to rot_pre /
 * rot_post so the fused and per-rotation paths share one numerical
 * story per translation unit.
 */

/* One rotation's update of one row's (m, n) entries, in the pre or the
 * post shape: the per-element bodies of rot_pre / rot_post, shared by
 * the block loop and the tail loop of the column sweeps below. */
static inline void sweep_row(double *rrow, double *qrow, intnat m, intnat n,
                             double c, double s, double ere, double eim,
                             int post)
{
  double mre = rrow[m], mim = qrow[m], nre = rrow[n], nim = qrow[n];
  if (post) {
    double wre = mre * c + nre * s;
    double wim = mim * c + nim * s;
    rrow[m] = wre * ere - wim * eim;
    qrow[m] = wre * eim + wim * ere;
    rrow[n] = nre * c - mre * s;
    qrow[n] = nim * c - mim * s;
  } else {
    double wre = mre * ere - mim * eim;
    double wim = mre * eim + mim * ere;
    rrow[m] = wre * c - nre * s;
    qrow[m] = wim * c - nim * s;
    rrow[n] = wre * s + nre * c;
    qrow[n] = wim * s + nim * c;
  }
}

/* Rows go in blocks of four: each packed rotation is loaded once and
 * applied to the four rows in turn.  Within one row every rotation
 * reads what the previous one wrote (the chain and tree stages rotate
 * adjacent pairs), so a lone row is one serial dependency chain; four
 * independent chains keep the floating-point units busy.  The rows
 * left over after the last block go one at a time through the same
 * sweep_row code. */
static inline void sweep_cols(double *restrict re, double *restrict im,
                              const double *restrict seq, intnat ncols,
                              intnat row_lo, intnat row_hi,
                              intnat rot_lo, intnat rot_hi, int post)
{
  intnat r = row_lo;
  for (; r + 4 <= row_hi; r += 4) {
    double *r0 = re + r * ncols, *q0 = im + r * ncols;
    double *r1 = r0 + ncols, *q1 = q0 + ncols;
    double *r2 = r1 + ncols, *q2 = q1 + ncols;
    double *r3 = r2 + ncols, *q3 = q2 + ncols;
    double d0 = (double)r, d1 = (double)(r + 1);
    double d2 = (double)(r + 2), d3 = (double)(r + 3);
    const double *p = seq + 8 * rot_lo;
    for (intnat t = rot_lo; t < rot_hi; t++, p += 8) {
      intnat m = (intnat)p[0], n = (intnat)p[1];
      double c = p[2], s = p[3], ere = p[4], eim = p[5], bound = p[6];
      if (d0 < bound) sweep_row(r0, q0, m, n, c, s, ere, eim, post);
      if (d1 < bound) sweep_row(r1, q1, m, n, c, s, ere, eim, post);
      if (d2 < bound) sweep_row(r2, q2, m, n, c, s, ere, eim, post);
      if (d3 < bound) sweep_row(r3, q3, m, n, c, s, ere, eim, post);
    }
  }
  for (; r < row_hi; r++) {
    double *rrow = re + r * ncols, *qrow = im + r * ncols;
    double rd = (double)r;
    const double *p = seq + 8 * rot_lo;
    for (intnat t = rot_lo; t < rot_hi; t++, p += 8)
      if (rd < p[6])
        sweep_row(rrow, qrow, (intnat)p[0], (intnat)p[1], p[2], p[3], p[4],
                  p[5], post);
  }
}

static void sweep_cols_pre(double *restrict re, double *restrict im,
                           const double *restrict seq, intnat ncols,
                           intnat row_lo, intnat row_hi,
                           intnat rot_lo, intnat rot_hi)
{
  sweep_cols(re, im, seq, ncols, row_lo, row_hi, rot_lo, rot_hi, 0);
}

static void sweep_cols_post(double *restrict re, double *restrict im,
                            const double *restrict seq, intnat ncols,
                            intnat row_lo, intnat row_hi,
                            intnat rot_lo, intnat rot_hi)
{
  sweep_cols(re, im, seq, ncols, row_lo, row_hi, rot_lo, rot_hi, 1);
}

static void sweep_rows_pre(double *restrict re, double *restrict im,
                           const double *restrict seq, intnat ncols,
                           intnat col_lo, intnat col_hi,
                           intnat rot_lo, intnat rot_hi)
{
  const double *p = seq + 8 * rot_lo;
  for (intnat t = rot_lo; t < rot_hi; t++, p += 8) {
    intnat m = (intnat)p[0], n = (intnat)p[1];
    double c = p[2], s = p[3], ere = p[4], eim = p[5];
    intnat first = (intnat)p[6];
    intnat j0 = col_lo > first ? col_lo : first;
    double *rm = re + m * ncols + j0, *qm = im + m * ncols + j0;
    double *rn = re + n * ncols + j0, *qn = im + n * ncols + j0;
    for (intnat j = j0; j < col_hi; j++, rm++, qm++, rn++, qn++) {
      double mre = *rm, mim = *qm, nre = *rn, nim = *qn;
      double wre = mre * ere - mim * eim;
      double wim = mre * eim + mim * ere;
      *rm = wre * c - nre * s;
      *qm = wim * c - nim * s;
      *rn = wre * s + nre * c;
      *qn = wim * s + nim * c;
    }
  }
}

#define SWEEP_STUBS(name)                                                    \
  CAMLprim value bose_##name##_nat(value vre, value vim, value vseq,         \
                                   intnat ncols, intnat lo, intnat hi,       \
                                   intnat rot_lo, intnat rot_hi)             \
  {                                                                          \
    name((double *)Caml_ba_data_val(vre), (double *)Caml_ba_data_val(vim),   \
         (const double *)Caml_ba_data_val(vseq), ncols, lo, hi, rot_lo,      \
         rot_hi);                                                            \
    return Val_unit;                                                         \
  }                                                                          \
  CAMLprim value bose_##name##_blk_nat(value vre, value vim, value vseq,     \
                                       intnat ncols, intnat lo, intnat hi,   \
                                       intnat rot_lo, intnat rot_hi)         \
  {                                                                          \
    double *re = (double *)Caml_ba_data_val(vre);                            \
    double *im = (double *)Caml_ba_data_val(vim);                            \
    const double *seq = (const double *)Caml_ba_data_val(vseq);              \
    caml_release_runtime_system();                                           \
    name(re, im, seq, ncols, lo, hi, rot_lo, rot_hi);                        \
    caml_acquire_runtime_system();                                           \
    return Val_unit;                                                         \
  }                                                                          \
  CAMLprim value bose_##name##_byte(value *argv, int argn)                   \
  {                                                                          \
    (void)argn;                                                              \
    return bose_##name##_nat(argv[0], argv[1], argv[2], Long_val(argv[3]),   \
                             Long_val(argv[4]), Long_val(argv[5]),           \
                             Long_val(argv[6]), Long_val(argv[7]));          \
  }                                                                          \
  CAMLprim value bose_##name##_blk_byte(value *argv, int argn)               \
  {                                                                          \
    (void)argn;                                                              \
    return bose_##name##_blk_nat(argv[0], argv[1], argv[2],                  \
                                 Long_val(argv[3]), Long_val(argv[4]),       \
                                 Long_val(argv[5]), Long_val(argv[6]),       \
                                 Long_val(argv[7]));                         \
  }

SWEEP_STUBS(sweep_cols_pre)
SWEEP_STUBS(sweep_cols_post)
SWEEP_STUBS(sweep_rows_pre)

/* ------------------------------------------------------------------ */
/* Binary-artifact helpers over mmapped byte buffers (char Bigarrays).
 * The disk cache maps object files and decodes the float planes with
 * one memcpy per plane (memcpy handles the file's arbitrary alignment)
 * instead of allocating and parsing an intermediate string.  Little-
 * endian hosts only; Mat gates the callers on Sys.big_endian.         */

CAMLprim value bose_ba_blit_to_plane(value vsrc, value vsrcoff, value vdst,
                                     value vdstoff, value vcount)
{
  const char *src = (const char *)Caml_ba_data_val(vsrc) + Long_val(vsrcoff);
  double *dst = (double *)Caml_ba_data_val(vdst) + Long_val(vdstoff);
  memcpy(dst, src, (size_t)Long_val(vcount) * sizeof(double));
  return Val_unit;
}

/* FNV-1a 64 over a mapped buffer slice; must agree with Bose_util.Fnv. */
CAMLprim value bose_ba_fnv1a64(value vba, value voff, value vlen)
{
  const unsigned char *p =
    (const unsigned char *)Caml_ba_data_val(vba) + Long_val(voff);
  intnat len = Long_val(vlen);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (intnat i = 0; i < len; i++)
    h = (h ^ p[i]) * 0x100000001b3ULL;
  return caml_copy_int64((int64_t)h);
}
