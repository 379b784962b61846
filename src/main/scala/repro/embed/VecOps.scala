package repro.embed

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.udf

/** Dense-vector helpers shared by the encoder, the ANN layer, merging and
  * pruning. Vectors are plain `Array[Double]` columns, always L2-normalised
  * by the encoder, so cosine similarity is a dot product and Euclidean
  * distance is `sqrt(2 - 2·dot)`.
  */
object VecOps {

  /** Dot product of two equal-length vectors. */
  def dot(a: Seq[Double], b: Seq[Double]): Double = {
    var s = 0.0; var i = 0
    val n = math.min(a.length, b.length)
    while (i < n) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Cosine distance (1 - cos) for unit vectors; clamped to [0, 2]. */
  def cosineDist(a: Seq[Double], b: Seq[Double]): Double =
    math.min(2.0, math.max(0.0, 1.0 - dot(a, b)))

  /** Euclidean distance between unit vectors, via the dot product. */
  def euclideanDist(a: Seq[Double], b: Seq[Double]): Double =
    math.sqrt(math.max(0.0, 2.0 - 2.0 * dot(a, b)))

  /** L2-normalise in place-ish (returns a new array; zero vectors pass through). */
  def normalize(v: Array[Double]): Array[Double] = {
    val n = math.sqrt(v.map(x => x * x).sum)
    if (n <= 1e-12) v else v.map(_ / n)
  }

  /** L2-renormalised element-wise mean — the centroid of a merged item.
    * Vectors are summed in the order given; callers pass them in a fixed
    * order (Merging: item-id order) so the result is reproducible bit for bit.
    */
  def meanNormalized(vs: Seq[Seq[Double]]): Array[Double] = {
    require(vs.nonEmpty, "meanNormalized of empty sequence")
    val dim = vs.head.length
    val acc = new Array[Double](dim)
    vs.foreach { v => var i = 0; while (i < dim) { acc(i) += v(i); i += 1 } }
    var i = 0
    while (i < dim) { acc(i) /= vs.size; i += 1 }
    normalize(acc)
  }

  /** Column-level cosine distance between two vector columns. */
  def cosineDistCol(a: Column, b: Column): Column = cosineDistUdf(a, b)

  /** Column-level Euclidean distance between two unit-vector columns. */
  def euclideanDistCol(a: Column, b: Column): Column = euclideanDistUdf(a, b)

  /** Column-level centroid over `collect_list`-ed vectors. */
  def meanNormalizedCol(vs: Column): Column = meanUdf(vs)

  private val cosineDistUdf =
    udf((a: Seq[Double], b: Seq[Double]) => cosineDist(a, b))
  private val euclideanDistUdf =
    udf((a: Seq[Double], b: Seq[Double]) => euclideanDist(a, b))
  private val meanUdf =
    udf((vs: Seq[Seq[Double]]) => meanNormalized(vs))
}
