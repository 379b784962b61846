package perfbench

import org.apache.spark.sql.SparkSession
import repro.data.{EmDataGen, EmDataset}

/** One benchmark input: a generated multi-source dataset.
  *
  * @param defaultScale size used by the timed and traced runs, as a fraction
  *                     of paper scale; see README.md for why each was chosen
  * @param baseSeed     EmDataGen's own seed for this dataset; benchmark seed
  *                     0 reproduces it
  * @param expectedAttrs the attributes EER must keep (paper Table VII)
  * @param exactAnn     the ANN mode `Harness.annFor` must pick at this size
  * @param generate     (spark, data seed, size as a fraction of paper scale)
  */
final case class Workload(
    name: String,
    defaultScale: Double,
    baseSeed: Long,
    expectedAttrs: Seq[String],
    exactAnn: Boolean,
    generate: (SparkSession, Long, Double) => EmDataset,
)

object Workload {

  val all: Seq[Workload] = Seq(
    Workload("geo-exact", 0.40, 11L, Seq("name"), exactAnn = true,
      (s, seed, f) => EmDataGen.geo(s, scale = f, seed = seed)),
    Workload("music20-eer", 0.53, 22L, Seq("title", "artist", "album"), exactAnn = false,
      (s, seed, f) => EmDataGen.music(s, nTuples = math.round(5000 * f), seed = seed, name = "Music-20")),
  )

  def named(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
