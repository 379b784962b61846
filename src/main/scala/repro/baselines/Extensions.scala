package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.ann.{AnnConfig, MutualTopK}

/** The two multi-table extensions of two-table EM methods the paper
  * evaluates (Fig. 2a / 2c): pairwise matching over all table pairs and
  * chain matching against a growing base table. Both output matched pairs;
  * tuples come from Algorithm 5 (`Metrics.pairsToTuples`).
  *
  * Tables carry (id, vec, text) — i.e. already-embedded entities, so the
  * comparison isolates the matching strategy, as in the paper.
  */
object Extensions {

  /** Pairwise matching (suffix "(pw)"): apply the matcher to every one of
    * the C(S,2) table pairs and union the outputs — quadratic in S.
    */
  def pairwise(tables: Seq[DataFrame], matcher: PairMatcher): DataFrame = {
    val outs = for {
      i <- tables.indices
      j <- tables.indices
      if i < j
    } yield matcher.matchPairs(tables(i), tables(j))
    outs.reduce(_ unionByName _).distinct()
  }

  /** Chain matching (suffix "(c)"): match tables one by one against a base
    * table that retains the unmatched entities of every step, so the base
    * grows — not parallelisable, and per-step cost increases.
    */
  def chain(tables: Seq[DataFrame], matcher: PairMatcher): DataFrame = {
    require(tables.nonEmpty)
    var base = tables.head.localCheckpoint()
    var allPairs: Option[DataFrame] = None
    for (t <- tables.tail) {
      val pairs = matcher.matchPairs(base, t).localCheckpoint()
      allPairs = Some(allPairs.map(_ unionByName pairs).getOrElse(pairs))
      val matchedRight = pairs.select(col("b") as "id").distinct()
      val unmatchedRight = t.join(matchedRight, Seq("id"), "left_anti")
      base = base.unionByName(unmatchedRight).localCheckpoint()
    }
    allPairs
      .map(_.distinct())
      .getOrElse(tables.head.sparkSession.emptyDataFrame.select(lit(0L) as "a", lit(0L) as "b").limit(0))
  }

  /** Bulk formulation of pairwise candidate generation: one kernel call
    * over all C(S,2) source pairs instead of C(S,2) separate jobs (essential
    * for Shopee's 20 sources). Each source pair is one group of
    * `MutualTopK.grouped`, so per source pair the semantics are those of
    * `Candidates.mutual`; an equality test covers this. Each source's
    * vectors ship once, as the block every pair with a lower source scans.
    *
    * @param items (id, source, vec[, keys]) — all entities tagged with
    *              their source; `keys` required when `ann.exact` is false
    * @return (a, b, dist) with source(a) < source(b)
    */
  def bulkMutualCandidates(items: DataFrame, k: Int, m: Double, ann: AnnConfig): DataFrame = {
    val sources = items.select("source").distinct().collect().map(_.getAs[Number](0).longValue)
    val keys = if (ann.exact) Seq.empty else Seq(col("keys"))
    val higher = explode(filter(array(sources.map(lit(_)): _*), _ > col("source"))) as "block"
    val left = items.select(Seq(col("source"), col("id") as "lid", col("vec"), higher) ++ keys: _*)
      .withColumn("group", shiftleft(col("source").cast("long"), 32) + col("block"))
    val right = items.select(Seq(col("source") as "block", col("id") as "rid", col("vec")) ++ keys: _*)
    MutualTopK.grouped(left, right, k, m, ann).select(col("lid") as "a", col("rid") as "b", col("dist"))
  }
}
