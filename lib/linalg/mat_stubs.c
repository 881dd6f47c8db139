/* Flat split-plane Givens rotation kernels over Bigarray storage.
 *
 * Mat's two float planes are float64/c_layout Bigarray.Array1 values,
 * so Caml_ba_data_val gives a stable off-heap [double *] with no GC
 * interaction.  All index and shape validation happens on the OCaml
 * side (Mat.rot_*); these entry points assume in-bounds, distinct m/n.
 *
 * Two shapes cover the four Mat kernels:
 *   pre  — the phase e^{iφ} multiplies plane m *before* the real
 *          rotation (rot_cols_t_dagger with φ ← −φ, rot_rows_t);
 *   post — the real rotation runs first and the phase lands on the
 *          rotated m entry (rot_cols_t, rot_rows_t_dagger with φ ← −φ).
 * Each shape comes in a unit-stride variant (row rotations, and column
 * rotations of a transposed scratch: two contiguous runs, which the
 * compiler vectorizes) and a strided variant (column rotations:
 * stride = ncols).
 *
 * Both entry points are [@@noalloc] and keep the runtime lock: one
 * call rotates one pair of runs of at most N elements, too short a loop
 * for releasing the lock to pay, so entry costs ~a C call at every N.
 *
 * The restrict qualifiers are justified by the OCaml-side m <> n
 * check: the m-run and n-run never overlap.
 */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>

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
