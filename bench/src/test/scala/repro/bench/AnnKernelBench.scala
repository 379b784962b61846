package repro.bench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.ann.{AnnConfig, MutualTopK}
import repro.core.MultiEm
import repro.embed.EmbedConfig
import repro.expts.Datasets

/** Micro-bench of the mutual top-K kernel: one exact and one keyed call on
  * Music-20's first level-1 table pair (sources 0 and 1, paper scale,
  * Table VII's attributes, k = 1, m = 0.45). Prints both call times (the
  * second of two calls each) and the keyed call's recall against exact, and
  * checks that exact mode costs at most 10× keyed mode.
  *
  * Run with `sbt "bench/testOnly repro.bench.AnnKernelBench"`.
  */
class AnnKernelBench extends SparkSpec {

  private def pairsOf(df: DataFrame): Set[(Long, Long)] =
    df.select("lid", "rid").collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  test("ANN kernel — exact vs keyed on a Music-20 level-1 table pair") {
    val ds = Datasets.music20(spark).ds
    val union = ds.tables.reduce(_ unionByName _)
    val emb = MultiEm.representWithKeys(union, Seq("title", "artist", "album"), EmbedConfig(), AnnConfig(exact = false))
      .localCheckpoint()
    val Seq(a, b) = ds.tables.take(2).map(t =>
      t.select("eid").join(emb, Seq("eid")).select(col("eid") as "id", col("vec"), col("keys")).localCheckpoint())

    def call(exact: Boolean): (Set[(Long, Long)], Double) = {
      val runs = (1 to 2).map { _ =>
        val t0 = System.nanoTime()
        val pairs = pairsOf(MutualTopK.mutualPairs(a, b, 1, 0.45, AnnConfig(exact = exact)))
        (pairs, (System.nanoTime() - t0) / 1e9)
      }
      runs.last
    }
    val (exact, exactS) = call(exact = true)
    val (keyed, keyedS) = call(exact = false)
    val recall = if (exact.isEmpty) 1.0 else (keyed intersect exact).size.toDouble / exact.size
    println(f"AnnKernelBench: ${a.count()} x ${b.count()} entities; exact $exactS%.2f s (${exact.size} pairs), " +
      f"keyed $keyedS%.2f s (${keyed.size} pairs), exact/keyed ${exactS / keyedS}%.1fx, keyed recall $recall%.3f")
    assert(exactS <= 10 * keyedS, f"exact $exactS%.2f s exceeds 10x keyed $keyedS%.2f s")
  }
}
