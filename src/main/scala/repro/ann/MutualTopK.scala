package repro.ann

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Configuration of the approximate neighbor search (HNSW substitute).
  *
  * Two candidate-generation modes:
  *  - `exact = true`: every right row of the group is a candidate (test
  *    scale; recall oracle);
  *  - `exact = false`: signature blocking — entities carry `keys`
  *    (see `Embedder.blockingKeys`: pairwise combos of their top-weighted
  *    features + rare single features) and a left row's candidates are the
  *    right rows sharing at least one key. Near-duplicates share top
  *    features even under typos, so they collide on at least one key; all
  *    candidates are re-ranked by exact cosine distance.
  */
case class AnnConfig(
    exact: Boolean = true,
    topB: Int = 5,
    rareDf: Long = 30L,
)

/** A left row streamed through the kernel; `cands` is null in exact mode. */
private[ann] final case class Streamed(group: Long, block: Long, lid: Long, vec: Array[Double], cands: Array[Long])

/** A ranked hit of the scoring pass: a left row's own top-K entry
  * (`forward`), or one partition's top-K entry for a right row, still to be
  * reduced across partitions.
  */
private[ann] final case class Hit(group: Long, lid: Long, rid: Long, dist: Double, forward: Boolean)

/** The right rows of one block: ids ascending, vectors packed row-major. */
private final class Block(val ids: Array[Long], val vecs: Array[Double]) extends Serializable

/** The best ≤ k (dist, id) entries offered so far, ascending by dist, then
  * id — the one ranking rule of mutual top-K search.
  */
private final class TopK(k: Int) {
  val dists = new Array[Double](k)
  val ids = new Array[Long](k)
  var size = 0

  private def before(d: Double, id: Long, i: Int): Boolean =
    d < dists(i) || (d == dists(i) && id < ids(i))

  def offer(d: Double, id: Long): Unit =
    if (size < k || before(d, id, k - 1)) {
      var i = if (size < k) { size += 1; size - 1 } else k - 1
      while (i > 0 && before(d, id, i - 1)) { dists(i) = dists(i - 1); ids(i) = ids(i - 1); i -= 1 }
      dists(i) = d; ids(i) = id
    }

  def contains(id: Long): Boolean = {
    var i = 0
    while (i < size && ids(i) != id) i += 1
    i < size
  }
}

/** Mutual top-K neighbor search between embedded tables, Eq. (1):
  *
  *   P_m = { (e, e') | e ∈ topK(e') ∧ e' ∈ topK(e) ∧ dist(e, e') ≤ m }
  *
  * One kernel (blocked brute-force k-NN in the style of FAISS) serves every
  * caller. The right rows are collected once and broadcast as primitive
  * vectors, one block per `block` value; each partition of left rows scans
  * its block (all rows in exact mode, the key-sharing rows in keyed mode),
  * keeping every left row's top-K and, in the same pass, the partition's
  * top-K for every right row. One shuffle keyed by (group, rid) reduces the
  * latter to the right rows' top-K and keeps the forward pairs it contains.
  * Ranks order by (dist, partner id), so ties resolve deterministically.
  */
object MutualTopK {

  /** Mutual top-K pairs with distance ≤ m of every group at once.
    *
    * @param left  (group, block, lid, vec[, keys]); a row is scored against
    *              the right rows of its `block` and ranked within its
    *              `group`; all rows of a group name the same block
    * @param right (block, rid, vec[, keys]) — `keys` required on both sides
    *              when `cfg.exact` is false
    * @return (group, lid, rid, dist)
    */
  def grouped(left: DataFrame, right: DataFrame, k: Int, m: Double, cfg: AnnConfig): DataFrame = {
    require(k >= 1, s"k must be positive, got $k")
    val spark = left.sparkSession
    import spark.implicits._
    val rows = right.select("block", "rid", "vec").as[(Long, Long, Array[Double])].collect()
    val dim = rows.headOption.map(_._3.length).getOrElse(0)
    rows.foreach(r => require(r._3.length == dim,
      s"vector length ${r._3.length} of right row ${r._2} differs from $dim"))
    val blocks = rows.groupBy(_._1).map { case (b, rs) =>
      val sorted = rs.sortBy(_._2)
      b -> new Block(sorted.map(_._2), sorted.flatMap(_._3))
    }
    val bc = spark.sparkContext.broadcast(blocks)

    val l = left.select("group", "block", "lid", "vec")
    val streamed =
      if (cfg.exact) l.withColumn("cands", lit(null).cast("array<bigint>"))
      else {
        val lk = left.select(col("group"), col("block"), col("lid"), explode(col("keys")) as "key")
        val rk = right.select(col("block"), col("rid"), explode(col("keys")) as "key")
        val cands = lk.join(rk, Seq("block", "key"))
          .groupBy("group", "lid").agg(array_distinct(collect_list("rid")) as "cands")
        l.join(cands, Seq("group", "lid"))
      }
    streamed.as[Streamed]
      .mapPartitions(it => scan(it, bc.value, dim, k, m))
      .groupByKey(h => (h.group, h.rid))
      .flatMapGroups((_, hits) => intersect(hits, k))
      .select("group", "lid", "rid", "dist")
  }

  /** Mutual top-K pairs with distance ≤ m between two tables — the one-group
    * case of `grouped`.
    *
    * @param left  DataFrame with columns (id, vec[, keys])
    * @param right DataFrame with columns (id, vec[, keys]) — `keys` required
    *              when `cfg.exact` is false
    * @return (lid, rid, dist) — lid from `left`, rid from `right`
    */
  def mutualPairs(
      left: DataFrame,
      right: DataFrame,
      k: Int,
      m: Double,
      cfg: AnnConfig = AnnConfig(exact = true),
  ): DataFrame = {
    val keys = if (cfg.exact) Seq.empty else Seq(col("keys"))
    grouped(
      left.select(Seq(lit(0L) as "group", lit(0L) as "block", col("id") as "lid", col("vec")) ++ keys: _*),
      right.select(Seq(lit(0L) as "block", col("id") as "rid", col("vec")) ++ keys: _*),
      k, m, cfg,
    ).select("lid", "rid", "dist")
  }

  /** Cosine distance of unit vectors, as `VecOps.cosineDist`: the dot
    * product summed in index order, then `1 − dot` clamped to [0, 2].
    */
  private def dist(a: Array[Double], vecs: Array[Double], off: Int): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * vecs(off + i); i += 1 }
    math.min(2.0, math.max(0.0, 1.0 - s))
  }

  /** The scoring pass over one partition of left rows: each row's forward
    * top-K hits as it streams, then the partition's top-K per right row.
    */
  private def scan(rows: Iterator[Streamed], blocks: Map[Long, Block], dim: Int, k: Int, m: Double): Iterator[Hit] = {
    val fwd = new TopK(k)
    val rev = mutable.HashMap.empty[Long, (Block, Array[TopK])]
    val forward = rows.flatMap { r =>
      blocks.get(r.block) match {
        case None => Iterator.empty
        case Some(b) =>
          require(r.vec.length == dim, s"vector length ${r.vec.length} of left row ${r.lid} differs from $dim")
          val (rb, back) = rev.getOrElseUpdate(r.group, (b, new Array[TopK](b.ids.length)))
          require(rb eq b, s"group ${r.group} spans more than one block")
          fwd.size = 0
          def score(j: Int): Unit = {
            val d = dist(r.vec, b.vecs, j * dim)
            if (d <= m) {
              fwd.offer(d, b.ids(j))
              if (back(j) == null) back(j) = new TopK(k)
              back(j).offer(d, r.lid)
            }
          }
          if (r.cands == null) { var j = 0; while (j < b.ids.length) { score(j); j += 1 } }
          else r.cands.foreach { id => val j = java.util.Arrays.binarySearch(b.ids, id); if (j >= 0) score(j) }
          Array.tabulate(fwd.size)(i => Hit(r.group, r.lid, fwd.ids(i), fwd.dists(i), forward = true))
      }
    }
    forward ++ rev.iterator.flatMap { case (group, (b, back)) =>
      back.indices.iterator.filter(back(_) != null).flatMap { j =>
        val t = back(j)
        (0 until t.size).map(i => Hit(group, t.ids(i), b.ids(j), t.dists(i), forward = false))
      }
    }
  }

  /** One right row's hits reduced to the forward hits that fall inside its
    * top-K over all partitions' candidates.
    */
  private def intersect(hits: Iterator[Hit], k: Int): Iterator[Hit] = {
    val top = new TopK(k)
    val fwd = mutable.ArrayBuffer.empty[Hit]
    hits.foreach(h => if (h.forward) fwd += h else top.offer(h.dist, h.lid))
    fwd.iterator.filter(h => top.contains(h.lid))
  }
}
